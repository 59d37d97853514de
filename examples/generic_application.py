#!/usr/bin/env python
"""ADA for a non-VMD application (paper §1 and §3.1's precision tiers).

A sensor-array application produces fixed-size records mixing a
high-precision tier (timestamps + float64 readings) with a low-precision
tier (float16 previews + quality flags).  It hands ADA a *structure file*
describing that layout; ADA splits the table column-group-wise, places the
hot tier on flash, and serves precision-selective reads -- no VMD anywhere.

Run:  python examples/generic_application.py
"""

import numpy as np

from repro.core import IODeterminator, PlacementPolicy
from repro.core.generic import FieldSpec, GenericPreProcessor, RecordStructure
from repro.fs import LocalFS, PLFS
from repro.sim import Simulator
from repro.storage import NVME_SSD_256GB, WD_1TB_HDD
from repro.units import fmt_bytes

N_RECORDS = 100_000


def main() -> None:
    # 1. The application's structure file (what §6 calls "a configuration
    #    file through which a user can describe the structure of his data").
    structure = RecordStructure(
        [
            FieldSpec("timestamp", "<i8", "hi"),
            FieldSpec("reading", "<f8", "hi"),
            FieldSpec("preview", "<f2", "lo"),
            FieldSpec("quality", "<u1", "lo"),
        ]
    )
    print(
        f"structure: {structure.record_nbytes} B/record, "
        f"hi tier {100 * structure.tag_fraction('hi'):.0f}% of the volume"
    )

    # 2. The raw table.
    rng = np.random.default_rng(44)
    records = np.empty(N_RECORDS, dtype=structure.numpy_dtype())
    records["timestamp"] = np.arange(N_RECORDS)
    records["reading"] = rng.normal(loc=20.0, scale=3.0, size=N_RECORDS)
    records["preview"] = records["reading"].astype("<f2")
    records["quality"] = rng.integers(0, 4, size=N_RECORDS)
    table = records.tobytes()

    # 3. ADA's generic pre-processor + the unchanged I/O determinator.
    pre = GenericPreProcessor(structure)
    subsets = pre.split(table)
    sim = Simulator()
    plfs = PLFS(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        metadata_backend="ssd",  # the index log lives on the hot tier
    )
    det = IODeterminator(
        sim,
        plfs,
        PlacementPolicy(
            active_tags=frozenset({"hi"}),
            active_backend="ssd",
            inactive_backend="hdd",
        ),
    )
    sim.run_process(det.store("sensors.dat", subsets))
    for tag, blob in sorted(subsets.items()):
        backend = det.dispatcher.backend_for(tag)
        print(f"  tier {tag!r}: {fmt_bytes(len(blob)):>10s} -> {backend}")

    # 4. A quick-look consumer reads ONLY the low-precision tier...
    obj = sim.run_process(det.fetch("sensors.dat", "lo"))
    lo = pre.project(obj.data, "lo")
    print(
        f"\nquick look from {fmt_bytes(obj.nbytes)} (vs {fmt_bytes(len(table))} "
        f"raw): mean preview {lo['preview'].astype(np.float64).mean():.2f}, "
        f"{(lo['quality'] == 0).sum()} clean records"
    )

    # 5. ...while the full-precision analysis reconstructs everything.
    objs = {
        tag: sim.run_process(det.fetch("sensors.dat", tag))
        for tag in plfs.tags("sensors.dat")
    }
    merged = pre.merge({tag: o.data for tag, o in objs.items()})
    full = np.frombuffer(merged, dtype=structure.numpy_dtype())
    assert np.array_equal(full, records)
    print(
        f"full reconstruction bit-exact: {full['reading'].mean():.4f} mean "
        "reading from float64"
    )


if __name__ == "__main__":
    main()

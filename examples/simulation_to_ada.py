#!/usr/bin/env python
"""A running MD simulation streaming into ADA, analyzed live.

The full upstream story of Fig. 3b: an MD run over a GPCR-in-membrane
system (here :func:`generate_trajectory`, standing in for GROMACS/NAMD)
emits ``.xtc`` chunks as it goes; each chunk streams into ADA, which
splits it storage-side; the biologist then loads only the protein subset
and computes RMSD/RMSF/Rg on it.

Run:  python examples/simulation_to_ada.py
"""

import numpy as np

from repro import (
    ADA,
    Simulator,
    VMDSession,
    build_gpcr_system,
    generate_trajectory,
)
from repro.analysis import gyration_radius, rmsd_trajectory, rmsf
from repro.formats import encode_xtc, write_pdb
from repro.fs import LocalFS
from repro.storage import NVME_SSD_256GB, WD_1TB_HDD
from repro.units import fmt_bytes


def main() -> None:
    system = build_gpcr_system(natoms_target=5000, seed=23)
    pdb_text = write_pdb(system.topology, system.coords)
    print(f"simulating {system.topology!r}")
    # The run's output, written every 10 ps and flushed every 10 frames.
    traj = generate_trajectory(system, nframes=40, seed=24)
    chunks = [
        encode_xtc(traj.slice_frames(start, start + 10))
        for start in range(0, traj.nframes, 10)
    ]

    sim = Simulator()
    ada = ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
    )

    # Chunk 0 establishes the dataset (structure analysis happens once)...
    sim.run_process(ada.ingest("live.xtc", pdb_text, chunks[0]))

    # ...then the run keeps going, streaming each chunk into ADA.
    for part, blob in enumerate(chunks[1:]):
        receipt = sim.run_process(ada.ingest_append("live.xtc", blob))
        print(
            f"  streamed live.part{part:04d}.xtc: "
            f"+{fmt_bytes(sum(receipt.subset_sizes.values()))} "
            f"raw split storage-side"
        )

    # Tag-selective load of everything simulated so far.
    session = VMDSession(ada=ada)
    session.mol_new(pdb_text, name="live-protein")
    load = session.mol_addfile_tag("live.xtc", "p")
    traj = load.trajectory
    print(
        f"\nloaded protein subset: {traj.natoms} atoms x {traj.nframes} frames "
        f"({fmt_bytes(load.source_nbytes)})"
    )

    # The analysis the biologist actually wanted.
    series = rmsd_trajectory(traj)
    fluct = rmsf(traj)
    rg = gyration_radius(traj)
    print(f"RMSD vs frame 0:  max {series.max():.2f} A (drifts as it samples)")
    print(f"RMSF:             median {np.median(fluct):.2f} A, "
          f"most mobile atom {fluct.max():.2f} A")
    print(f"radius of gyration: {rg.mean():.1f} +/- {rg.std():.2f} A")


if __name__ == "__main__":
    main()

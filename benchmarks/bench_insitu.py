"""In-situ analysis benchmark: fused streaming analysis vs. analyze-later.

Ingests one GOF-chunked trajectory stream three ways -- plain pipelined,
fused with the :class:`InSituAnalysis` hook riding the third pipeline
stage, and the post-hoc ingest-then-readback-then-batch schedule -- and
records the canonical ``benchmarks/results/BENCH_insitu.json``.
Durations are simulated seconds, so the gates (fused overhead < 15 %
over plain pipelined ingest, time-to-results ahead of post hoc) hold
deterministically; the fused online results must be exact against the
batch operators on the read-back trajectory, and fused vs. plain ingest
must leave bit-identical stores.

A second, wall-clock gate times the contact pass that dominates the
fused analysis stage's *host* cost: the exact neighbour-grid kernel
against the frozen all-pairs reference it replaced.
"""

import time

import numpy as np

from repro import build_workload
from repro.analysis import frame_contact_counts
from tests.analysis import allpairs_reference


def test_bench_insitu_json_floors(run_gate):
    """Emit BENCH_insitu.json and hold every row of its gate."""
    result = run_gate("bench-insitu")
    assert result["schema_version"] == 1


#: ``natoms`` target -> minimum all-pairs / grid speed-up.  The 319-atom
#: system is what ``benchmarks/e2e`` ingests in-situ (the gain there is
#: mostly layout: half the pairs, no 4-D temporaries); at the 4006-atom
#: system of ``ingest_stream`` the grid's O(N) candidate count takes over.
CONTACT_FLOORS = {300: 3.0, 4000: 8.0}


def _best_ms_per_frame(fn, coords, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(coords, 8.0)
        best = min(best, time.perf_counter() - t0)
    return best / coords.shape[0] * 1e3


def test_bench_contacts_kernel(artifact_sink):
    """Wall-clock micro-gate: the neighbour-grid contact pass vs. the
    frozen all-pairs reference (best of N, same process, same frames)."""
    rows = []
    for natoms, floor in CONTACT_FLOORS.items():
        workload = build_workload(natoms=natoms, nframes=4, seed=7)
        coords = workload.trajectory.coords
        want = allpairs_reference.frame_contact_counts(coords, 8.0)[0]
        assert np.array_equal(frame_contact_counts(coords, 8.0)[0], want)
        repeats = 20 if natoms < 1000 else 3
        dense = _best_ms_per_frame(
            allpairs_reference.frame_contact_counts, coords, repeats
        )
        grid = _best_ms_per_frame(frame_contact_counts, coords, repeats)
        rows.append((coords.shape[1], dense, grid, dense / grid, floor))
    artifact_sink(
        "contacts_kernel.txt",
        "\n".join(
            ["natoms  all-pairs ms/frame  grid ms/frame  speed-up  floor"]
            + [
                f"{n:6d}  {dense:18.3f}  {grid:13.3f}  {ratio:7.1f}x"
                f"  {floor:4.1f}x"
                for n, dense, grid, ratio, floor in rows
            ]
        ),
    )
    for n, _, _, ratio, floor in rows:
        assert ratio >= floor, f"{n} atoms: {ratio:.1f}x < {floor}x"

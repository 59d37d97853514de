"""In-situ analysis benchmark: fused streaming analysis vs. analyze-later.

``run_insitu_bench`` ingests one GOF-chunked GPCR-like trajectory stream
into the rotating-disk deployment three ways:

* ``pipelined`` -- the plain write-behind ingest pipeline, no analysis:
  the baseline the fused path's *overhead* gate is measured against;
* ``fused``     -- the same ingest with an :class:`InSituAnalysis` hook
  fused in as the third overlapped stage: every window's decoded
  coordinates are analyzed before its buffers are released, charged on
  the storage node's analysis slot and overlapped with the next window's
  CPU work and the previous window's dispatch;
* ``post_hoc``  -- the traditional schedule: plain ingest, then read the
  whole dataset back (:meth:`ADA.fetch_merged`) and pay the batch
  analysis pass afterwards -- the decompress-again-later baseline the
  in-situ literature argues against.

Every duration is **simulated** seconds, so results are exactly
reproducible and the CI smoke test (``pytest -m bench``) can hold the
floors without flaking on machine noise.  The gates:

* the fused path's ingest overhead over ``pipelined`` stays under
  ``FLOORS['fused_overhead_max_frac']`` (< 15 %);
* fused and plain ingest leave **bit-identical** backend stores (the
  analysis stage moves *when* things happen, never what is stored);
* the fused online results are **exact** against the batch operators run
  on the merged read-back trajectory (OnlineStats rows within the
  documented ``STATS_RTOL``/``STATS_ATOL``);
* time-to-results (ingest start -> analysis available) beats the
  post-hoc schedule by ``FLOORS['vs_post_hoc_min_speedup']``.

The record is written to ``benchmarks/results/BENCH_insitu.json`` (one
canonical copy; ``python -m repro bench-insitu --json -o PATH``
overrides).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.analysis import (
    STATS_ATOL,
    STATS_RTOL,
    InSituAnalysis,
    block_average,
    contact_count,
    end_to_end_distance,
    gyration_radius,
    mean_square_displacement,
    native_contact_fraction,
    rmsd_trajectory,
)
from repro.core import IngestPipelineConfig
from repro.harness.benchkit import hdd_ada, storage_cpu, store_digest
from repro.sim import Simulator
from repro.units import to_mb
from repro.workloads import build_workload

__all__ = ["FLOORS", "render_insitu_bench", "run_insitu_bench"]

SCHEMA_VERSION = 1

#: Regression gates the bench (and the ``-m bench`` smoke test) enforces.
FLOORS = {
    # Fused ingest may cost at most this fraction over plain pipelined
    # ingest -- the analysis stage must overlap, not serialize.
    "fused_overhead_max_frac": 0.15,
    # Time-to-results must beat ingest + read-back + batch analysis.
    "vs_post_hoc_min_speedup": 1.02,
}


def _ingest(workload, config, analysis=None):
    sim = Simulator()
    ada = hdd_ada(sim, storage_cpu=storage_cpu(sim))
    started = sim.now
    receipt = sim.run_process(
        ada.ingest_stream(
            "stream.xtc", workload.xtc_blob, pdb_text=workload.pdb_text,
            config=config, analysis=analysis,
        )
    )
    return sim, ada, receipt, sim.now - started


def _batch_results(trajectory) -> Dict[str, np.ndarray]:
    """The batch-operator results the fused online state must reproduce."""
    return {
        "rmsd": rmsd_trajectory(trajectory),
        "contacts": contact_count(trajectory),
        "native_fraction": native_contact_fraction(trajectory),
        "gyration_radius": gyration_radius(trajectory),
        "end_to_end": end_to_end_distance(trajectory),
        "msd": mean_square_displacement(trajectory),
    }


def _stats_match(online_stats: Dict[str, object], series: np.ndarray) -> bool:
    """Do the streaming block rows match batch block averaging?"""
    rows = online_stats["blocks"]
    batch_rows = block_average(series)
    if len(rows) != len(batch_rows):
        return False
    for online, batch in zip(rows, batch_rows):
        if online.block_size != batch.block_size:
            return False
        if online.nblocks != batch.nblocks:
            return False
        if not np.isclose(
            online.mean, batch.mean, rtol=STATS_RTOL, atol=STATS_ATOL
        ):
            return False
        if not np.isclose(
            online.stderr, batch.stderr, rtol=STATS_RTOL, atol=STATS_ATOL
        ):
            return False
    return True


def run_insitu_bench(
    natoms: int = 1000,
    nframes: int = 160,
    keyframe_interval: int = 8,
    window_frames: int = 8,
    depth: int = 4,
    seed: int = 7,
) -> dict:
    """Measure fused in-situ analysis against its two baselines."""
    workload = build_workload(
        natoms=natoms, nframes=nframes, seed=seed,
        keyframe_interval=keyframe_interval,
    )
    config = IngestPipelineConfig(window_frames=window_frames, depth=depth)

    # Plain pipelined ingest: the overhead baseline.
    _, ada_plain, _, plain_s = _ingest(workload, config)

    # Fused: the in-situ hook rides the third pipeline stage.
    hook = InSituAnalysis()
    _, ada_fused, receipt, fused_s = _ingest(workload, config, analysis=hook)

    # Post hoc: plain ingest, then read everything back and pay the
    # batch analysis scan afterwards on the same storage CPU.
    sim_ph, ada_ph, _, ph_ingest_s = _ingest(workload, config)
    t0 = sim_ph.now
    merged = sim_ph.run_process(ada_ph.fetch_merged("stream.xtc"))
    readback_s = sim_ph.now - t0
    t0 = sim_ph.now
    sim_ph.run_process(
        ada_ph.storage_cpu.scan(merged.nbytes, label="batch-analysis")
    )
    batch_scan_s = sim_ph.now - t0
    post_hoc_s = ph_ingest_s + readback_s + batch_scan_s

    # Equivalence: online results vs. batch operators on the read-back
    # trajectory (per-frame operators exact; stats within tolerance).
    batch = _batch_results(merged)
    online = receipt.analysis
    exact = all(
        np.array_equal(online[name], batch[name]) for name in batch
    )
    stats_ok = all(
        _stats_match(online["stats"][name], batch[name])
        for name in online["stats"]
    )
    equivalent = exact and stats_ok and online["frames"] == merged.nframes

    identical = store_digest(ada_plain) == store_digest(ada_fused)
    overhead_frac = (fused_s - plain_s) / plain_s if plain_s > 0 else 0.0
    speedup_vs_post_hoc = post_hoc_s / fused_s if fused_s > 0 else 0.0
    passed = (
        identical
        and equivalent
        and overhead_frac < FLOORS["fused_overhead_max_frac"]
        and speedup_vs_post_hoc >= FLOORS["vs_post_hoc_min_speedup"]
    )
    raw_nbytes = nframes * natoms * 12
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "natoms": natoms,
            "nframes": nframes,
            "keyframe_interval": keyframe_interval,
            "window_frames": window_frames,
            "depth": depth,
            "windows": ada_fused.metrics.value("ingest_windows_total"),
            "raw_mb": round(to_mb(raw_nbytes), 3),
            "seed": seed,
        },
        "scenarios": {
            "pipelined": {"ingest_s": round(plain_s, 6)},
            "fused": {
                "ingest_s": round(fused_s, 6),
                "analysis_seconds": round(
                    ada_fused.metrics.value("ingest_analysis_seconds_total"), 6
                ),
                "overlap_ratio": round(
                    ada_fused.stats()["ingest"]["overlap_ratio"], 4
                ),
                "frames_analyzed": online["frames"],
                "operators": sorted(
                    k for k in online
                    if k not in (
                        "frames", "windows", "replays_ignored", "stats"
                    )
                ),
            },
            "post_hoc": {
                "ingest_s": round(ph_ingest_s, 6),
                "readback_s": round(readback_s, 6),
                "batch_scan_s": round(batch_scan_s, 6),
                "total_s": round(post_hoc_s, 6),
            },
        },
        "fused_overhead_frac": round(overhead_frac, 4),
        "speedup_vs_post_hoc": round(speedup_vs_post_hoc, 2),
        "floors": dict(FLOORS),
        "tolerance": {"stats_rtol": STATS_RTOL, "stats_atol": STATS_ATOL},
        "identical": identical,
        "equivalent": equivalent,
        "pass": passed,
        # Full registry snapshot of the fused deployment (the scenario
        # that exercises ingest + analysis metric families at once).
        "metrics": ada_fused.metrics.to_json(),
    }


def render_insitu_bench(result: dict) -> str:
    """Human-readable summary of a :func:`run_insitu_bench` record."""
    w = result["workload"]
    s = result["scenarios"]
    fused = s["fused"]
    ph = s["post_hoc"]
    lines = [
        "In-situ streaming analysis (simulated seconds)",
        f"  workload: {w['raw_mb']} MB raw, {w['windows']} windows of "
        f"~{w['window_frames']} frames ({w['natoms']} atoms)",
        f"  pipelined ingest (no analysis): {s['pipelined']['ingest_s']:.3f} s",
        f"  fused in-situ ingest: {fused['ingest_s']:.3f} s "
        f"(+{100 * result['fused_overhead_frac']:.1f}% overhead, "
        f"overlap {fused['overlap_ratio']})",
        f"  analysis stage: {fused['analysis_seconds']:.3f} s over "
        f"{fused['frames_analyzed']} frames "
        f"({', '.join(fused['operators'])})",
        f"  post hoc (ingest + readback + batch scan): {ph['total_s']:.3f} s "
        f"= {ph['ingest_s']:.3f} + {ph['readback_s']:.3f} "
        f"+ {ph['batch_scan_s']:.3f}",
        f"  time-to-results speedup vs post hoc: "
        f"{result['speedup_vs_post_hoc']}x "
        f"(floor {result['floors']['vs_post_hoc_min_speedup']}x)",
        f"  overhead floor: < "
        f"{100 * result['floors']['fused_overhead_max_frac']:.0f}%",
        f"  bit-identical stores (plain vs fused): {result['identical']}",
        f"  online == batch (exact; stats in tolerance): "
        f"{result['equivalent']}",
        f"  pass: {result['pass']}",
    ]
    return "\n".join(lines)

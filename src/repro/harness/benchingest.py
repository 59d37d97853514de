"""Streaming ingest benchmark: the write path, serial vs. pipelined.

``run_ingest_bench`` ingests one GOF-chunked GPCR-like trajectory stream
into a rotating-disk deployment under three write-path configurations:

* ``serial``               -- the windowed schedule with no overlap and
                              one uncoalesced backend write (plus one
                              index flush) per chunk: the pre-pipelining
                              ingest baseline;
* ``pipelined_uncoalesced``-- producer/consumer overlap through the
                              bounded write-behind queue, but every chunk
                              still pays its own backend request
                              (isolates the overlap win);
* ``pipelined``            -- overlap plus coalesced chunk-run writes
                              (one metadata operation and one
                              seek-amortized span per window run): the
                              full streaming ingest path.

Every duration is **simulated** seconds, so results are exactly
reproducible and the CI smoke test (``pytest -m bench``) can hold the
speedup floor without flaking on machine noise.  Each scenario digests
every byte (and every path) each backend holds after ingest; all three
digests must match -- pipelining changes *when* bytes land, never *which*
bytes -- and the pipelined scenarios must keep peak buffered bytes under
the configured watermark (the O(window x depth) memory claim).

The record is written to ``benchmarks/results/BENCH_ingest.json`` (one
canonical copy; ``python -m repro bench-ingest --json -o PATH``
overrides).  ``FLOORS`` holds the regression gate.
"""

from __future__ import annotations

from typing import Dict

from repro.core import IngestPipelineConfig
from repro.harness.benchkit import (
    counter_values,
    hdd_ada,
    storage_cpu,
    store_digest,
)
from repro.sim import Simulator
from repro.units import MiB, to_mb
from repro.workloads import build_workload

__all__ = ["FLOORS", "render_ingest_bench", "run_ingest_bench"]

SCHEMA_VERSION = 1

#: Regression gates the bench (and the ``-m bench`` smoke test) enforces.
FLOORS = {
    "pipelined_vs_serial": 2.0,  # overlap + coalescing at least doubles
}

#: Write-behind watermark the pipelined scenarios must stay under.
BUFFER_WATERMARK = 2 * MiB


def _scenario(
    pipelined: bool,
    coalesce: bool,
    window_frames: int,
    depth: int,
    workload,
) -> Dict[str, object]:
    config = IngestPipelineConfig(
        window_frames=window_frames,
        depth=depth,
        max_buffered_bytes=BUFFER_WATERMARK if pipelined else None,
        coalesce=coalesce,
        pipelined=pipelined,
    )
    sim = Simulator()
    ada = hdd_ada(
        sim,
        storage_cpu=storage_cpu(sim),
        ingest_config=config,
    )
    started = sim.now
    sim.run_process(
        ada.ingest_stream(
            "stream.xtc", workload.xtc_blob, pdb_text=workload.pdb_text
        )
    )
    value = ada.metrics.value
    return {
        "ada": ada,
        "record": {
            "ingest_s": round(sim.now - started, 6),
            "windows": value("ingest_windows_total"),
            "overlap_ratio": round(ada.stats()["ingest"]["overlap_ratio"], 4),
            "backpressure_waits": value("ingest_backpressure_waits_total"),
            "queue_depth_peak": value("ingest_queue_depth_peak"),
            "buffered_bytes_peak": value("ingest_buffered_bytes_peak"),
            "write_coalescing": counter_values(
                ada.metrics, "dispatcher",
                "coalesced_runs", "coalesced_chunks", "requests_saved",
            ),
            "dispatched_bytes_per_tag": {
                tag: value("dispatcher_bytes_total", tag=tag)
                for tag in ada.all_tags("stream.xtc")
            },
        },
        "digest": store_digest(ada),
    }


def run_ingest_bench(
    natoms: int = 4000,
    nframes: int = 160,
    keyframe_interval: int = 8,
    window_frames: int = 8,
    depth: int = 4,
    seed: int = 7,
) -> dict:
    """Measure the three write-path scenarios; returns the JSON record."""
    workload = build_workload(
        natoms=natoms, nframes=nframes, seed=seed,
        keyframe_interval=keyframe_interval,
    )

    runs = {
        "serial": _scenario(False, False, window_frames, depth, workload),
        "pipelined_uncoalesced": _scenario(
            True, False, window_frames, depth, workload
        ),
        "pipelined": _scenario(True, True, window_frames, depth, workload),
    }
    scenarios = {name: run["record"] for name, run in runs.items()}
    digests = {name: run["digest"] for name, run in runs.items()}

    serial_s = scenarios["serial"]["ingest_s"]
    speedups = {
        name: round(serial_s / scenarios[name]["ingest_s"], 2)
        for name in ("pipelined_uncoalesced", "pipelined")
    }
    identical = len(set(digests.values())) == 1
    buffer_bounded = all(
        scenarios[name]["buffered_bytes_peak"] <= BUFFER_WATERMARK
        for name in ("pipelined_uncoalesced", "pipelined")
    )
    passed = (
        identical
        and buffer_bounded
        and speedups["pipelined"] >= FLOORS["pipelined_vs_serial"]
    )
    nwindows = scenarios["pipelined"]["windows"]
    raw_nbytes = nframes * natoms * 12
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "natoms": natoms,
            "nframes": nframes,
            "keyframe_interval": keyframe_interval,
            "window_frames": window_frames,
            "depth": depth,
            "windows": nwindows,
            "raw_mb": round(to_mb(raw_nbytes), 3),
            "buffer_watermark_mb": round(to_mb(BUFFER_WATERMARK), 3),
            "seed": seed,
        },
        "scenarios": scenarios,
        "speedup_vs_serial": speedups,
        "floors": dict(FLOORS),
        "identical": identical,
        "buffer_bounded": buffer_bounded,
        "pass": passed,
        # Full registry snapshot of the fully pipelined deployment (the
        # scenario that exercises every write-path subsystem at once).
        "metrics": runs["pipelined"]["ada"].metrics.to_json(),
    }


def render_ingest_bench(result: dict) -> str:
    """Human-readable summary of a :func:`run_ingest_bench` record."""
    w = result["workload"]
    s = result["scenarios"]
    sp = result["speedup_vs_serial"]
    pipe = s["pipelined"]
    lines = [
        "Streaming ingest path (simulated ingest seconds)",
        f"  workload: {w['raw_mb']} MB raw, {w['windows']} windows of "
        f"~{w['window_frames']} frames ({w['natoms']} atoms, "
        f"depth {w['depth']})",
        f"  serial baseline: {s['serial']['ingest_s']:.3f} s",
        f"  pipelined (uncoalesced): "
        f"{s['pipelined_uncoalesced']['ingest_s']:.3f} s "
        f"({sp['pipelined_uncoalesced']}x)",
        f"  pipelined + coalesced runs: {pipe['ingest_s']:.3f} s "
        f"({sp['pipelined']}x, overlap {pipe['overlap_ratio']})",
        f"  write coalescing: {pipe['write_coalescing']['coalesced_runs']} "
        f"runs, {pipe['write_coalescing']['requests_saved']} requests saved",
        f"  peak buffered: {pipe['buffered_bytes_peak']} B "
        f"(watermark {w['buffer_watermark_mb']} MB, "
        f"bounded: {result['buffer_bounded']})",
        f"  floors: pipelined >= {result['floors']['pipelined_vs_serial']}x",
        f"  bit-identical stores across scenarios: {result['identical']}",
        f"  pass: {result['pass']}",
    ]
    return "\n".join(lines)

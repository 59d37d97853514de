"""Pipelined read-path benchmark: the Figure 8/9 playback loop, four ways.

``run_pipeline_bench`` replays the paper's windowed trajectory playback --
fetch a window of subset chunks, spend the calibrated CPU time consuming
it, advance -- against one multi-chunk dataset on rotating storage, under
four read-path configurations:

* ``serial``         -- one synchronous chunk request at a time, no cache:
                        the pre-pipelining baseline;
* ``cold_cache``     -- tiered block cache + request coalescing, first
                        pass (every block is a miss, but windows coalesce
                        into span reads);
* ``warm_cache``     -- the same deployment's second pass (the working set
                        is L1-resident);
* ``prefetch``       -- cache + coalescing + the adaptive prefetcher:
                        the next window's span read overlaps the current
                        window's CPU time.

Every duration is **simulated** seconds, so results are exactly
reproducible -- the CI smoke test (``pytest -m bench``) can hold the
speedup floors without flaking on machine noise.  Each scenario digests
every byte the consumer saw; all four digests must match (the pipelined
paths change *when* bytes move, never *which* bytes).

The record is written to ``benchmarks/results/BENCH_pipeline.json`` (one
canonical copy; ``python -m repro bench-pipeline --json -o PATH``
overrides).  ``FLOORS`` holds the regression gates (prefetch >= 2x over
serial, warm-pass hit ratio >= 0.9).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core import ADA
from repro.fs.cache import BlockCache
from repro.harness.benchkit import (
    PLAYBACK_TAG,
    chunk_windows,
    chunked_catalog,
    counter_values,
    hdd_ada,
    ingest_chunks,
    play_windows,
)
from repro.sim import Simulator
from repro.units import to_mb

__all__ = ["FLOORS", "render_pipeline_bench", "run_pipeline_bench"]

SCHEMA_VERSION = 2  # v2: adds the "metrics" registry snapshot

#: Regression gates the bench (and the ``-m bench`` smoke test) enforces.
FLOORS = {
    "prefetch_vs_serial": 2.0,  # pipelined playback at least doubles
    "warm_hit_ratio": 0.9,  # second pass serves from the block cache
}


def _hits_misses(ada: ADA) -> Tuple[int, int]:
    """The deployment's block-cache ``(hits, misses)`` so far."""
    value = ada.metrics.value
    hits = value("block_cache_hits_total", tier="l1") + value(
        "block_cache_hits_total", tier="l2"
    )
    return hits, value("block_cache_misses_total")


def _hit_ratio(hits: int, misses: int) -> float:
    total = hits + misses
    return round(hits / total, 4) if total else 0.0


def run_pipeline_bench(
    natoms: int = 1200,
    nchunks: int = 96,
    frames_per_chunk: int = 80,
    window_chunks: int = 8,
    seed: int = 7,
) -> dict:
    """Measure the four read-path scenarios; returns the JSON record."""
    logical = "playback.xtc"
    [(_, pdb_text, blobs)] = chunked_catalog(
        1, natoms, nchunks, frames_per_chunk, seed
    )
    windows = chunk_windows(nchunks, window_chunks)

    def deployment(cache: bool = False, **ada_kwargs) -> ADA:
        sim = Simulator()
        ada = hdd_ada(
            sim, block_cache=BlockCache(sim) if cache else None, **ada_kwargs
        )
        ingest_chunks(ada, logical, pdb_text, blobs)
        return ada

    def playback(ada: ADA, name: str) -> float:
        elapsed, _, digest = play_windows(
            ada, logical, PLAYBACK_TAG, windows, "full"
        )
        digests[name] = digest
        return round(elapsed, 6)

    scenarios: Dict[str, Dict[str, object]] = {}
    digests: Dict[str, str] = {}

    # serial: the pre-pipelining baseline -- one chunk request at a time.
    ada = deployment(serial_requests=True)
    chunk_nbytes = ada.subset_nbytes(logical, PLAYBACK_TAG) // nchunks
    scenarios["serial"] = {"playback_s": playback(ada, "serial")}

    # cold + warm: one cached deployment, two passes.
    ada = deployment(cache=True)
    scenarios["cold_cache"] = {
        "playback_s": playback(ada, "cold_cache"),
        "coalescing": {
            "enabled": ada.determinator.retriever.coalesce,
            **counter_values(
                ada.metrics, "retriever",
                "coalesced_runs", "coalesced_chunks", "requests_saved",
            ),
        },
    }
    cold_hits, cold_misses = _hits_misses(ada)
    warm_s = playback(ada, "warm_cache")
    hits, misses = _hits_misses(ada)
    hits, misses = hits - cold_hits, misses - cold_misses
    scenarios["warm_cache"] = {
        "playback_s": warm_s,
        "hits": hits,
        "misses": misses,
        "hit_ratio": _hit_ratio(hits, misses),
    }

    # prefetch: cache + coalescing + adaptive readahead, cold pass.
    ada = deployment(cache=True, prefetch=True)
    # (Its counters are the ``prefetch_*``/``block_cache_*`` series of the
    # ``metrics`` snapshot below; only the derived ratio is stated here.)
    scenarios["prefetch"] = {
        "playback_s": playback(ada, "prefetch"),
        "cache": {"hit_ratio": _hit_ratio(*_hits_misses(ada))},
    }

    serial_s = scenarios["serial"]["playback_s"]
    speedups = {
        name: round(serial_s / scenarios[name]["playback_s"], 2)
        for name in ("cold_cache", "warm_cache", "prefetch")
    }
    identical = len(set(digests.values())) == 1
    passed = (
        identical
        and speedups["prefetch"] >= FLOORS["prefetch_vs_serial"]
        and scenarios["warm_cache"]["hit_ratio"] >= FLOORS["warm_hit_ratio"]
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "natoms": natoms,
            "nchunks": nchunks,
            "frames_per_chunk": frames_per_chunk,
            "window_chunks": window_chunks,
            "chunk_mb": round(to_mb(chunk_nbytes), 3),
            "seed": seed,
        },
        "scenarios": scenarios,
        "speedup_vs_serial": speedups,
        "floors": dict(FLOORS),
        "identical": identical,
        "pass": passed,
        # Full registry snapshot of the prefetch deployment (the scenario
        # that exercises every read-path subsystem at once).
        "metrics": ada.metrics.to_json(),
    }


def render_pipeline_bench(result: dict) -> str:
    """Human-readable summary of a :func:`run_pipeline_bench` record."""
    w = result["workload"]
    s = result["scenarios"]
    sp = result["speedup_vs_serial"]
    lines = [
        "Pipelined read path (simulated playback seconds)",
        f"  workload: {w['nchunks']} chunks x {w['chunk_mb']} MB "
        f"({w['natoms']} atoms, window {w['window_chunks']} chunks)",
        f"  serial baseline: {s['serial']['playback_s']:.3f} s",
        f"  cold cache+coalesce: {s['cold_cache']['playback_s']:.3f} s "
        f"({sp['cold_cache']}x)",
        f"  warm cache: {s['warm_cache']['playback_s']:.3f} s "
        f"({sp['warm_cache']}x, hit ratio {s['warm_cache']['hit_ratio']})",
        f"  prefetch: {s['prefetch']['playback_s']:.3f} s ({sp['prefetch']}x)",
        f"  floors: prefetch >= {result['floors']['prefetch_vs_serial']}x, "
        f"warm hit ratio >= {result['floors']['warm_hit_ratio']}",
        f"  bit-identical across scenarios: {result['identical']}",
        f"  pass: {result['pass']}",
    ]
    return "\n".join(lines)

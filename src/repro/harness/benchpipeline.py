"""Pipelined read-path benchmark: the Figure 8/9 playback loop, four ways.

``run_pipeline_bench`` replays the paper's windowed trajectory playback --
fetch a window of subset chunks, spend the calibrated CPU time consuming
it, advance -- against one multi-chunk dataset on rotating storage, under
four read-path configurations:

* ``serial``         -- the uncached deployment: one request per chunk,
                        no coalescing, no prefetch -- the baseline every
                        pipelined path is measured against;
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
overrides); ``GATE`` is every row ``pass`` holds.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core import ADA
from repro.fs.cache import BlockCache
from repro.harness.benchkit import (
    PLAYBACK_TAG,
    Row,
    chunk_windows,
    chunked_catalog,
    counter_values,
    gate_pass,
    hdd_ada,
    ingest_chunks,
    play_windows,
)
from repro.sim import Simulator
from repro.units import to_mb

__all__ = ["FLOORS", "GATE", "run_pipeline_bench"]

SCHEMA_VERSION = 2  # v2: adds the "metrics" registry snapshot

#: Tunable floors; the record carries them as ``floors``.
FLOORS = {
    "prefetch_vs_serial": 2.0,  # pipelined playback at least doubles
    "warm_hit_ratio": 0.9,  # second pass serves from the block cache
}

#: What ``pass`` requires.  The pipeline is strictly additive: every
#: accelerated path beats serial, and the warm pass beats the cold one.
GATE = [
    Row("identical", "==", True),
    Row("speedup_vs_serial.prefetch", ">=", "floors.prefetch_vs_serial"),
    Row("scenarios.warm_cache.hit_ratio", ">=", "floors.warm_hit_ratio"),
    Row("speedup_vs_serial.cold_cache", ">", 1.0),
    Row("speedup_vs_serial.warm_cache", ">", "speedup_vs_serial.cold_cache"),
]


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

    # serial: the uncached baseline -- one request per chunk.
    ada = deployment()
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
    record = {
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
        "identical": len(set(digests.values())) == 1,
    }
    record["pass"] = gate_pass(GATE, record)
    # Full registry snapshot of the prefetch deployment (the scenario that
    # exercises every read-path subsystem at once).
    record["metrics"] = ada.metrics.to_json()
    return record


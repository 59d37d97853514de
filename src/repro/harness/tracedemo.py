"""Trace demo: a windowed playback whose demand read overlaps a prefetch.

``python -m repro trace`` needs a scenario that exercises the whole
observability surface in a few simulated milliseconds: tag-selective
windowed fetches through the block cache, request coalescing, the
adaptive prefetcher, and -- the part worth staring at -- a demand window
that arrives while the prefetcher's speculative read of the *same*
chunks is still in flight.  The retriever deduplicates that read: the
demand path joins the in-flight process instead of re-issuing it, so
the trace shows exactly one device read for the window plus one
``retriever.dedup_join`` span under the demand fetch.

The overlap is engineered, not lucky: the consumer's per-window CPU time
(``think_s``) is far shorter than a window's rotating-disk read, so by
the time the stride detector confirms the sequential pattern and the
prefetcher launches the next window's read, the consumer is already
asking for those chunks.  Everything is seeded and simulated -- the same
call produces a byte-identical trace every time.
"""

from __future__ import annotations

from typing import Tuple

from repro.core import ADA
from repro.fs.cache import BlockCache
from repro.harness.benchkit import (
    PLAYBACK_TAG,
    chunk_windows,
    chunked_catalog,
    hdd_ada,
    ingest_chunks,
)
from repro.obs.trace import Tracer
from repro.sim import Simulator

__all__ = ["TRACE_LOGICAL", "TRACE_TAG", "run_trace_demo"]

#: Dataset / tag names the demo (and ``python -m repro trace``) uses.
TRACE_LOGICAL = "trace-demo.xtc"
TRACE_TAG = PLAYBACK_TAG


def run_trace_demo(
    natoms: int = 400,
    nchunks: int = 24,
    frames_per_chunk: int = 12,
    window_chunks: int = 4,
    think_s: float = 1e-4,
    seed: int = 11,
) -> Tuple[ADA, Tracer]:
    """Run the demand-overlapping-prefetch playback; returns (ada, tracer).

    The returned tracer holds one root timeline per ``ada.fetch_chunks``
    window (plus the prefetcher's background reads nested under the
    demand fetch that launched them); the registry on ``ada.metrics``
    holds the matching counters.
    """
    sim = Simulator()
    tracer = Tracer(sim)
    ada = hdd_ada(
        sim, block_cache=BlockCache(sim), prefetch=True, tracer=tracer
    )
    [(_, pdb_text, blobs)] = chunked_catalog(
        1, natoms, nchunks, frames_per_chunk, seed
    )
    ingest_chunks(ada, TRACE_LOGICAL, pdb_text, blobs)
    tracer.clear()  # the interesting timelines are the read path's

    def consumer():
        # One process drives every window: the heap never drains between
        # windows, so the prefetcher's background read launched after
        # window N is still in flight when window N+1 demands its chunks.
        for window in chunk_windows(nchunks, window_chunks):
            yield from ada.fetch_chunks(TRACE_LOGICAL, TRACE_TAG, window)
            yield sim.timeout(think_s)

    sim.run_process(consumer())
    return ada, tracer

"""Precision-selective serving benchmark: scrubbing on the LOD tier.

``run_lod_bench`` replays three interactive access patterns -- forward
scrub, backward scrub (rewind), and skip scrub (irregular forward jumps,
the "jumpy" ensemble browse) -- against one chunked dataset on rotating
storage, once per precision tier:

* ``*_full`` -- exact bytes (the raw full-precision subset chunks);
* ``*_lod``  -- the coarse-quantized sibling layer the pre-processor
  wrote at ingest (``precision="lod"``), roughly a quarter of the bytes.

Every duration is **simulated** seconds, so results are exactly
reproducible -- the CI smoke test (``pytest -m bench -m lod``) can hold
the floors without flaking on machine noise.  The full-tier scenarios
digest every byte served; the digests must agree across scenarios *and*
with a deployment built without any LOD layer at all (the sibling tier
may never perturb exact reads).  The LOD scenarios additionally verify
the decoded coarse coordinates stay within the advertised
:meth:`~repro.core.middleware.ADA.lod_bound` of the exact ones.

The backward and skip patterns double as regression scenarios for the
prefetcher's pattern detectors: rewind confirms a negative exact stride,
and the skip browse never repeats a stride at all -- only the
direction-only detector keeps readahead live there -- so the record
carries the prefetcher counters (``issued``, ``issued_direction``) for
every scenario.

The record is written to ``benchmarks/results/BENCH_lod.json`` (one
canonical copy; ``python -m repro bench-lod --json -o PATH`` overrides).
``FLOORS`` holds the tunable floors; ``GATE`` is every row ``pass`` holds.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core import ADA
from repro.core.lod import DEFAULT_LOD_PRECISION, lod_tag
from repro.errors import ConfigurationError
from repro.formats.xtc import decode_raw, decode_xtc
from repro.fs.cache import BlockCache
from repro.harness.benchkit import (
    PLAYBACK_TAG,
    Row,
    chunk_windows,
    chunked_catalog,
    counter_values,
    hdd_ada,
    ingest_chunks,
    play_windows,
    seal,
)
from repro.sim import Simulator
from repro.units import to_mb

__all__ = ["FLOORS", "GATE", "run_lod_bench"]

SCHEMA_VERSION = 1

#: Tunable floors; the record carries them as ``floors``.
FLOORS = {
    "lod_bytes_per_frame_ratio": 0.35,  # coarse layer <= 0.35x full bytes
    "scrub_lod_speedup": 2.0,  # coarse forward scrub at least doubles
}

#: What ``pass`` requires.  A one-tier run (``precision="full"``/``"lod"``)
#: carries no ``lod_speedup``, so its row reads n/a and gates nothing.
GATE = [
    Row("identical", "==", True),
    Row("error_bound.measured", "<=", "error_bound.advertised"),
    Row("bytes_per_frame.ratio", "<=", "floors.lod_bytes_per_frame_ratio"),
    Row("lod_speedup.scrub", ">=", "floors.scrub_lod_speedup"),
]


def _max_lod_error(ada: ADA, logical: str, chunks: Sequence[int]) -> float:
    """Measured per-coordinate error of the coarse tier on sample chunks."""
    sim = ada.sim
    worst = 0.0
    for chunk in chunks:
        full, coarse = sim.run_process(
            ada.fetch_chunks(logical, PLAYBACK_TAG, [chunk])
        ), sim.run_process(
            ada.fetch_chunks(logical, PLAYBACK_TAG, [chunk], precision="lod")
        )
        exact = decode_raw(full[0].data).coords
        approx = decode_xtc(coarse[0].data).coords
        worst = max(worst, float(np.abs(approx - exact).max()))
    return worst


def run_lod_bench(
    natoms: int = 1200,
    nchunks: int = 96,
    frames_per_chunk: int = 80,
    window_chunks: int = 8,
    seed: int = 7,
    lod_precision: float = DEFAULT_LOD_PRECISION,
    precision: str = "both",
) -> dict:
    """Measure the scrub matrix across both tiers; returns the JSON record.

    ``precision`` restricts the matrix (``"full"``/``"lod"``/``"both"``);
    the scrub speedup floor only gates a ``"both"`` run, since it compares
    the tiers' playback.
    """
    if precision not in ("full", "lod", "both"):
        raise ConfigurationError(
            f"precision must be 'full', 'lod', or 'both', got {precision!r}"
        )
    logical = "scrub.xtc"
    [(_, pdb_text, blobs)] = chunked_catalog(
        1, natoms, nchunks, frames_per_chunk, seed
    )
    nframes = nchunks * frames_per_chunk
    tiers = ("full", "lod") if precision == "both" else (precision,)

    def deployment(lod: Optional[float]) -> ADA:
        """Cache + prefetch on the rotating disk: the scrubbing scenario
        the LOD tier exists to make cheap.  Always fresh, so every pass
        starts from a cold cache."""
        sim = Simulator()
        ada = hdd_ada(
            sim, block_cache=BlockCache(sim), prefetch=True, lod_precision=lod
        )
        ingest_chunks(ada, logical, pdb_text, blobs)
        return ada

    # Baseline deployment with no LOD layer at all: its full-tier digest
    # pins that the sibling tier never perturbs exact bytes.
    _, _, bare_digest = play_windows(
        deployment(None), logical, PLAYBACK_TAG,
        chunk_windows(nchunks, window_chunks), "full",
    )

    scenarios: Dict[str, Dict[str, object]] = {}
    full_digests = {"bare_scrub": bare_digest}
    ada = None
    for tier in tiers:
        for pattern in ("scrub", "backward", "skip"):
            ada = deployment(lod_precision)
            windows = chunk_windows(nchunks, window_chunks, pattern)
            elapsed, served, digest = play_windows(
                ada, logical, PLAYBACK_TAG, windows, tier
            )
            name = f"{pattern}_{tier}"
            scenarios[name] = {
                "playback_s": round(elapsed, 6),
                "served_mb": round(to_mb(served), 3),
                "prefetcher": counter_values(
                    ada.metrics, "prefetch",
                    "issued", "issued_direction", "chunks_requested",
                ),
            }
            if name == "scrub_full":
                # Same visit order as the bare deployment's pass: byte-for-
                # byte agreement proves the LOD layer never touches the
                # exact tier.  (Backward/skip passes digest a different
                # visit order, so they pin nothing here.)
                full_digests[name] = digest

    full_bpf = ada.subset_nbytes(logical, PLAYBACK_TAG) / nframes
    lod_bpf = ada.subset_nbytes(logical, lod_tag(PLAYBACK_TAG)) / nframes
    advertised = ada.lod_bound(logical)
    measured_error = _max_lod_error(ada, logical, (0, nchunks // 2))

    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "natoms": natoms,
            "nchunks": nchunks,
            "frames_per_chunk": frames_per_chunk,
            "window_chunks": window_chunks,
            "lod_precision": lod_precision,
            "seed": seed,
        },
        "scenarios": scenarios,
        "bytes_per_frame": {
            "full": round(full_bpf, 1),
            "lod": round(lod_bpf, 1),
            "ratio": lod_bpf / full_bpf,
        },
        "error_bound": {"advertised": advertised, "measured": measured_error},
        "floors": dict(FLOORS),
        "identical": len(set(full_digests.values())) == 1,
    }
    if precision == "both":
        record["lod_speedup"] = {
            pattern: round(
                scenarios[f"{pattern}_full"]["playback_s"]
                / scenarios[f"{pattern}_lod"]["playback_s"],
                2,
            )
            for pattern in ("scrub", "backward", "skip")
        }
    seal(GATE, record, {"bytes_per_frame.ratio": 4})
    if precision == "both":
        # The last LOD deployment's lod_* counters: the observable trace
        # of tiered serving.
        record["lod"] = counter_values(
            ada.metrics, "lod", "served", "chunks", "fallback",
        )
    return record


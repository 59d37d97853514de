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
``FLOORS`` holds the regression gates (LOD bytes/frame <= 0.35x full,
coarse forward scrub >= 2x faster than exact).
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
    chunk_windows,
    chunked_catalog,
    counter_values,
    hdd_ada,
    ingest_chunks,
    play_windows,
)
from repro.sim import Simulator
from repro.units import to_mb

__all__ = ["FLOORS", "render_lod_bench", "run_lod_bench"]

SCHEMA_VERSION = 1

#: Regression gates the bench (and the ``-m bench`` smoke test) enforces.
FLOORS = {
    "lod_bytes_per_frame_ratio": 0.35,  # coarse layer <= 0.35x full bytes
    "scrub_lod_speedup": 2.0,  # coarse forward scrub at least doubles
}


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
    the floors only gate a ``"both"`` run, since they compare the tiers.
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
    bytes_ratio = lod_bpf / full_bpf
    advertised = ada.lod_bound(logical)
    measured_error = _max_lod_error(ada, logical, (0, nchunks // 2))

    identical = len(set(full_digests.values())) == 1
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
            "ratio": round(bytes_ratio, 4),
        },
        "error_bound": {
            "advertised": advertised,
            "measured": measured_error,
            "within": measured_error <= advertised,
        },
        "floors": dict(FLOORS),
        "identical": identical,
    }
    if precision == "both":
        speedups = {
            pattern: round(
                scenarios[f"{pattern}_full"]["playback_s"]
                / scenarios[f"{pattern}_lod"]["playback_s"],
                2,
            )
            for pattern in ("scrub", "backward", "skip")
        }
        record["lod_speedup"] = speedups
        record["pass"] = (
            identical
            and record["error_bound"]["within"]
            and bytes_ratio <= FLOORS["lod_bytes_per_frame_ratio"]
            and speedups["scrub"] >= FLOORS["scrub_lod_speedup"]
        )
        # The last LOD deployment's lod_* counters: the observable trace
        # of tiered serving.
        record["lod"] = counter_values(
            ada.metrics, "lod",
            "served", "chunks", "fallback", "auto_lod", "auto_full",
        )
    else:
        record["pass"] = identical and record["error_bound"]["within"]
    return record


def render_lod_bench(result: dict) -> str:
    """Human-readable summary of a :func:`run_lod_bench` record."""
    w = result["workload"]
    s = result["scenarios"]
    bpf = result["bytes_per_frame"]
    lines = [
        "Precision-selective scrubbing (simulated playback seconds)",
        f"  workload: {w['nchunks']} chunks x {w['frames_per_chunk']} frames"
        f" ({w['natoms']} atoms, window {w['window_chunks']} chunks,"
        f" lod precision {w['lod_precision']})",
        f"  bytes/frame: full {bpf['full']:.0f}, lod {bpf['lod']:.0f}"
        f" (ratio {bpf['ratio']})",
    ]
    for name in sorted(s):
        lines.append(f"  {name}: {s[name]['playback_s']:.3f} s"
                     f" ({s[name]['served_mb']} MB)")
    if "lod_speedup" in result:
        sp = result["lod_speedup"]
        lines.append(
            "  lod speedup: "
            + ", ".join(f"{k} {v}x" for k, v in sorted(sp.items()))
        )
    err = result["error_bound"]
    lines += [
        f"  error: measured {err['measured']:.6f}"
        f" <= advertised {err['advertised']:.6f}: {err['within']}",
        f"  floors: bytes ratio <= "
        f"{result['floors']['lod_bytes_per_frame_ratio']}, scrub speedup >= "
        f"{result['floors']['scrub_lod_speedup']}x",
        f"  full tier bit-identical (incl. no-LOD deployment): "
        f"{result['identical']}",
        f"  pass: {result['pass']}",
    ]
    return "\n".join(lines)

"""Codec throughput benchmark with a frozen pre-PR kernel baseline.

Produces the machine-readable ``BENCH_codec.json`` record (schema v4):
serial encode/decode MB/s, the stream's compression ratio, and
``baseline_ratio`` -- serial decode throughput of the vectorized kernels
relative to the seed's bit-matrix kernels.  Every gated number is a
measured serial rate or a byte count.  ``host["inflate"]`` names what
inflates the live decode's frames (``libdeflate`` or ``zlib``, see
:mod:`repro.fastzlib`); the frozen kernel always inflates with zlib.

The baseline is *embedded* here rather than checked out from history:
:func:`legacy_decode_xtc` decodes the exact same stream with the seed's
strategy -- an O(count x nbits) bit-matrix expansion per block
(``unpackbits`` + matrix-vector product), a pure-Python per-frame loop
with fresh allocations at every step, and a final ``np.stack``.  Only the
container parsing (header struct, stored-payload flag, block size) tracks
the current format so both kernels read identical bytes.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional

import numpy as np
import zlib

from repro import fastzlib
from repro.errors import CodecError
from repro.formats.trajectory import Trajectory
from repro.formats.xtc import (
    _BLOCK_VALUES,
    _FLAG_PFRAME,
    _FLAG_STORED,
    _HEADER,
    _PAYLOAD_HEAD,
    FrameIndex,
    _header_box,
    decode_xtc,
    encode_xtc,
    iter_frame_infos,
)
from repro.harness.benchkit import Row, seal
from repro.units import to_mb

__all__ = [
    "FLOORS",
    "GATE",
    "all_deflate_stream",
    "legacy_decode_xtc",
    "run_codec_bench",
]

SCHEMA_VERSION = 4

#: The tunable floors.  ``baseline_ratio`` is measured serial wall
#: clock vs the frozen seed kernel.  Its floor sits at 2.0 because this
#: workload is deliberately P-frame heavy (``keyframe_interval=12`` over
#: 384 frames) -- delta payloads are smaller and cheaper for *both*
#: kernels, which compresses the gap the v1 I-frame-heavy mix showed
#: (~3.1x); the floor still trips hard if the seed kernel's per-frame
#: full-deflate path is ever reintroduced (~1x).  ``compression_ratio`` is
#: bytes, not wall clock (3.452x with level-6 deflate, 3.453x
#: Huffman-only): an entropy stage that costs ratio fails.
FLOORS = {
    "baseline_ratio": 2.0,
    "compression_ratio": 3.45,
}

#: What ``pass`` requires.  A ratio of 5 or more would mean the stream
#: dropped precision, not that the entropy stage got better.
GATE = [
    Row("baseline_ratio", ">=", "floors.baseline_ratio"),
    Row("workload.compression_ratio", ">=", "floors.compression_ratio"),
    Row("workload.compression_ratio", "<", 5.0),
]


# -- the pre-PR kernel, frozen ------------------------------------------------


def _legacy_unzigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.uint64)
    half = (v >> np.uint64(1)).astype(np.int64)
    sign = (v & np.uint64(1)).astype(np.int64)
    return half ^ -sign


def _legacy_unpack_words(data: bytes, count: int, nbits: int) -> np.ndarray:
    """The seed's bit-matrix unpack: O(count x nbits) expansion."""
    if nbits == 0 or count == 0:
        return np.zeros(count, dtype=np.uint64)
    total_bits = count * nbits
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8), count=total_bits
    ).astype(np.uint64)
    weights = np.left_shift(
        np.uint64(1), np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    )
    return bits.reshape(count, nbits) @ weights


def _legacy_decode_delta_block(
    payload: bytes, expected_count: int, stored: bool
) -> np.ndarray:
    raw = payload if stored else zlib.decompress(payload)
    nblocks, count = _PAYLOAD_HEAD.unpack_from(raw, 0)
    if count != expected_count:
        raise CodecError(f"payload holds {count} values, expected {expected_count}")
    offset = _PAYLOAD_HEAD.size
    widths = raw[offset : offset + nblocks]
    offset += nblocks
    out = np.empty(count, dtype=np.uint64)
    for b in range(nblocks):
        block_count = min(_BLOCK_VALUES, count - b * _BLOCK_VALUES)
        nbits = widths[b]
        nbytes = (block_count * nbits + 7) // 8
        out[b * _BLOCK_VALUES : b * _BLOCK_VALUES + block_count] = (
            _legacy_unpack_words(raw[offset : offset + nbytes], block_count, nbits)
        )
        offset += nbytes
    return _legacy_unzigzag(out)


def legacy_decode_xtc(data: bytes) -> Trajectory:
    """Decode with the seed's per-frame Python loop and bit-matrix kernel."""
    frames: List[np.ndarray] = []
    steps: List[int] = []
    times: List[float] = []
    prev_ints: Optional[np.ndarray] = None
    box = None
    for info in iter_frame_infos(data):
        start = info.offset + info.header_nbytes
        payload = data[start : start + info.payload_nbytes]
        natoms = info.natoms
        stored = bool(info.flags & _FLAG_STORED)
        if info.flags & _FLAG_PFRAME:
            deltas = _legacy_decode_delta_block(
                payload, natoms * 3, stored
            ).reshape(natoms, 3)
            ints = prev_ints + deltas
        else:
            origin = np.frombuffer(payload, dtype="<i4", count=3).astype(np.int64)
            deltas = _legacy_decode_delta_block(
                payload[16:], (natoms - 1) * 3, stored
            ).reshape(natoms - 1, 3)
            ints = np.empty((natoms, 3), dtype=np.int64)
            ints[0] = origin
            np.cumsum(deltas, axis=0, dtype=np.int64, out=ints[1:])
            ints[1:] += origin
        frames.append((ints / info.precision).astype(np.float32))
        prev_ints = ints
        steps.append(info.step)
        times.append(info.time_ps)
        if box is None:
            box = _header_box(data, info.offset)
    return Trajectory(
        coords=np.stack(frames),
        steps=np.asarray(steps, dtype=np.int64),
        times_ps=np.asarray(times, dtype=np.float64),
        box=box,
    )


def all_deflate_stream(data: bytes, level: int = 6) -> bytes:
    """Rewrite a stream so every payload is deflated (no stored escapes).

    The pre-PR encoder zlib-compressed every frame unconditionally; the
    current one stores near-incompressible P-frame bodies verbatim.  To
    measure the baseline on the bytes it would actually have shipped, the
    stored payloads are re-deflated and the flag cleared -- the logical
    content is untouched, and both decoders read the result identically.
    """
    chunks: List[bytes] = []
    for info in iter_frame_infos(data):
        start = info.offset + info.header_nbytes
        payload = data[start : start + info.payload_nbytes]
        flags = info.flags
        if flags & _FLAG_STORED:
            payload = zlib.compress(payload, level)
            flags &= ~_FLAG_STORED
        fields = list(_HEADER.unpack_from(data, info.offset))
        fields[14] = flags
        fields[15] = len(payload)
        chunks.append(_HEADER.pack(*fields))
        chunks.append(payload)
    return b"".join(chunks)


# -- measurement --------------------------------------------------------------


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-N wall seconds -- the minimum filters scheduler noise."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_codec_bench(
    natoms: int = 8000,
    nframes: int = 384,
    keyframe_interval: int = 12,
    repeats: int = 3,
    seed: int = 7,
) -> dict:
    """Measure codec throughput; returns the ``BENCH_codec.json`` record.

    Rates are best-of-``repeats`` so a noisy run cannot understate them.
    """
    from repro.workloads import build_workload

    workload = build_workload(natoms=natoms, nframes=nframes, seed=seed)
    trajectory = workload.trajectory
    raw_nbytes = trajectory.nbytes
    blob = encode_xtc(trajectory, keyframe_interval=keyframe_interval)
    legacy_blob = all_deflate_stream(blob)
    encode_s = _best_seconds(
        lambda: encode_xtc(trajectory, keyframe_interval=keyframe_interval),
        repeats,
    )
    decode_s = _best_seconds(lambda: decode_xtc(blob), repeats)
    legacy_s = _best_seconds(lambda: legacy_decode_xtc(legacy_blob), repeats)

    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "natoms": trajectory.natoms,
            "nframes": trajectory.nframes,
            "keyframe_interval": keyframe_interval,
            "gofs": len(FrameIndex.build(blob).gofs()),
            "raw_mb": round(to_mb(raw_nbytes), 3),
            "compressed_mb": round(to_mb(len(blob)), 3),
            "compression_ratio": raw_nbytes / len(blob),
            "seed": seed,
        },
        # Decode MB/s is comparable only between hosts of one backend.
        "host": {"cpus": os.cpu_count() or 1, "inflate": fastzlib.backend()},
        "repeats": repeats,
        "encode_mb_s": round(to_mb(raw_nbytes) / encode_s, 1),
        "decode_mb_s": round(to_mb(raw_nbytes) / decode_s, 1),
        "legacy_decode_mb_s": round(to_mb(raw_nbytes) / legacy_s, 1),
        "baseline_ratio": round(legacy_s / decode_s, 2),
        "floors": dict(FLOORS),
    }
    seal(GATE, record, {"workload.compression_ratio": 3})
    return record


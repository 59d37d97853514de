"""XTC-like lossy compressed trajectory codec.

GROMACS ``.xtc`` files store coordinates quantized to fixed-point integers
(default precision 1000 => milli-Angstrom) and entropy-coded.  The essential
properties the paper relies on are:

1. the file is roughly **3x smaller** than raw float32 frames (Table 2:
   100 MB compressed vs. 327 MB raw);
2. **no random access to atoms**: the whole frame must be decompressed
   before any atom subset can be extracted -- this is the repeated CPU
   burden ADA removes from compute nodes; and
3. decompression is **CPU-expensive relative to transfer** from fast
   storage.

This codec reproduces all three with a transparent pipeline: quantize ->
delta-code -> bit-pack -> Huffman-only deflate (zlib's LZ77 match search
finds almost nothing in bit-packed deltas).  Each frame is independently
compressed behind a fixed-size binary header, so a file can be scanned
frame-by-frame (:func:`iter_frame_infos`) without inflating payloads --
which is exactly what ADA's storage-side pre-processor does before it
splits a dataset.

A companion *raw container* format (``RAW_MAGIC``) stores uncompressed
float32 subsets; it is what ADA writes to its backends after categorizing,
and what the "D-" scenarios of the paper load.

Performance model (the materialized-mode hot path):

* the bit-packing kernels work on **period words**: a fixed-width stream
  repeats its byte/bit phase every few values, so pack folds each period
  into big-endian 64-bit words with one integer mat-vec and unpack pulls
  the lanes back out with one shift each (one more where a field straddles
  two words) -- a constant handful of numpy passes per equal-width run of
  blocks at every width, never a per-bit matrix;
* the delta/zigzag/quantize stages run as **whole-GOF batch operations**:
  encode quantizes a GOF's frames in five passes into one int64 block
  that feeds the I-frame's intra-frame deltas and, with a single
  subtraction along the frame axis, every P-frame's temporal deltas,
  zigzags them in place and scans every block's width with one segmented
  ``max``; decode inflates per frame, then unpacks a GOF's P-frames of
  one block layout as one bitstream into one int64 matrix, unzigzags it
  once, rebuilds it with in-place prefix sums and converts kept frames
  with one reciprocal multiply -- so per-frame Python overhead
  disappears and each GOF spends its time inside numpy and zlib C loops
  (on encode, most of it inside the one deflate per frame);
* keyframes every ``keyframe_interval`` partition a stream into
  independently codable **groups of frames** (GOFs), each encoded and
  decoded by the batch kernels above, in stream order;
* a :class:`FrameIndex` captures one header scan (offsets, keyframe
  anchors) and makes every subsequent :func:`decode_frame_range` /
  frame-count / size query O(1) in the number of frames outside the
  requested window.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
import struct
import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CodecError
from repro.formats.trajectory import BYTES_PER_COORD, Trajectory

__all__ = [
    "XTC_MAGIC",
    "RAW_MAGIC",
    "DEFAULT_PRECISION",
    "XtcFrameInfo",
    "FrameIndex",
    "encode_xtc",
    "decode_xtc",
    "iter_frame_infos",
    "count_frames",
    "raw_frame_nbytes",
    "encode_raw",
    "decode_raw",
    "raw_container_nbytes",
]

#: Magic number of real GROMACS XTC files; reused for familiarity.
XTC_MAGIC = 1995
#: Magic for the raw (uncompressed float32) subset container.
RAW_MAGIC = 1996
#: Fixed-point precision: coordinate * precision rounds to int.  Coordinates
#: here are in Angstrom, so 100.0 gives 0.01 A resolution -- exactly the
#: resolution of GROMACS's default xtc-precision of 1000 in nm units.
DEFAULT_PRECISION = 100.0

# Frame header: magic, natoms, step, time, box[9], precision, flags, payload
# length.  Flag bit 0 set => P-frame (payload holds temporal deltas against
# the previous frame); clear => I-frame (intra-frame deltas along the atom
# axis).  Real XTC compresses every frame independently; we add temporal
# prediction (as the TNG successor format does) to reach the same ~3x ratio
# with a byte-oriented entropy stage.
_HEADER = struct.Struct("<iii f 9f f iI")
_FLAG_PFRAME = 1
# Flag bit 1 set => the payload body is *stored* (not deflated).  Bit-packed
# deltas are already near the entropy floor, so deflate often buys only a few
# percent while dominating decode time; the encoder keeps deflate only when it
# shrinks the body by at least 1/16 (real xdr3dfcoord likewise skips its
# entropy stage when packing alone suffices).
_FLAG_STORED = 2
# zlib strategy of the entropy stage; every stored byte depends on it.  No
# match search: deflate time halves and bodies shrink 0.06 % vs. level 6.
_DEFLATE_STRATEGY = zlib.Z_HUFFMAN_ONLY

# Payload prologue (inside the deflate stream): block count, value count.
# Each block then carries its own word width, so a few outlier deltas (5-sigma
# thermal kicks) don't widen the whole frame -- the same adaptivity real
# xdr3dfcoord gets from its small/large escape scheme.
_PAYLOAD_HEAD = struct.Struct("<HI")
# Stored (non-deflated) payload bodies carry a trailing CRC-32: deflated
# bodies are integrity-checked by zlib's adler32, and without an equivalent
# a flipped bit in a stored P-frame would decode to silently wrong
# coordinates instead of a typed error.
_STORED_CRC = struct.Struct("<I")
_BLOCK_VALUES = 8192
_INT32_MAX = float(np.iinfo(np.int32).max)
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_PRECISION_MIN = _INT32_MAX / _FLOAT32_MAX
_RAW_HEADER = struct.Struct("<iiqif")  # magic, natoms, nframes, reserved, dt


@dataclass(frozen=True)
class XtcFrameInfo:
    """Location and metadata of one compressed frame inside an XTC stream."""

    index: int
    offset: int  # byte offset of the frame header
    header_nbytes: int
    payload_nbytes: int  # compressed payload size
    natoms: int
    step: int
    time_ps: float
    flags: int = 0
    precision: float = 0.0

    @property
    def is_keyframe(self) -> bool:
        """True for I-frames (decodable without any earlier frame)."""
        return not self.flags & _FLAG_PFRAME

    @property
    def total_nbytes(self) -> int:
        return self.header_nbytes + self.payload_nbytes

    @property
    def raw_nbytes(self) -> int:
        """Decompressed payload size of this frame."""
        return raw_frame_nbytes(self.natoms)


def raw_frame_nbytes(natoms: int) -> int:
    """Uncompressed payload bytes of one frame (float32 xyz)."""
    return natoms * BYTES_PER_COORD


def _check_precision(precision: float, frame: Optional[int] = None) -> None:
    """Reject a precision the format cannot carry: NaN, +-inf, <= 0, beyond
    the float32 header field, or so small that the largest quantum (int32
    max) divided by it overflows float32.  ``frame`` is the header it was
    read from; ``None`` means it was passed to :func:`encode_xtc`."""
    if not _PRECISION_MIN <= precision <= _FLOAT32_MAX:
        where = "passed to encode_xtc" if frame is None else f"in frame {frame}"
        raise CodecError(f"bad precision {precision} {where}")


def _quantize(coords: np.ndarray, precision: float) -> np.ndarray:
    """Round ``coords * precision`` to int32-range quanta, returned as int64
    (every delta taken downstream needs 33 bits).

    Five passes: multiply straight into float64, round in place, one
    ``min`` and one ``max``, cast.  NaN propagates through both
    reductions and +-inf survives the multiply (``precision`` is finite,
    see :func:`_check_precision`), so the two scalars carry the non-finite
    check as well as the overflow check -- and no NaN reaches the cast.
    """
    values = np.multiply(coords, precision, dtype=np.float64)
    np.rint(values, out=values)
    if values.size:
        lo, hi = float(values.min()), float(values.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise CodecError("non-finite coordinates cannot be encoded")
        if hi > _INT32_MAX or lo < -_INT32_MAX:
            raise CodecError("coordinates overflow int32 at this precision")
    return values.astype(np.int64)


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned (0,-1,1,-2 -> 0,1,2,3) for bit packing,
    in place; ``values`` is consumed and its uint64 view returned."""
    sign = values >> 63
    np.left_shift(values, 1, out=values)
    np.bitwise_xor(values, sign, out=values)
    return values.view(np.uint64)


def _unzigzag(values: np.ndarray) -> np.ndarray:
    """Invert :func:`_zigzag` in place; ``values`` (uint64) is consumed."""
    v = values.astype(np.uint64, copy=False)
    # (v >> 1) ^ -(v & 1), all in uint64, reinterpreted as int64.
    sign = v & np.uint64(1)
    np.subtract(np.uint64(0), sign, out=sign)
    np.right_shift(v, np.uint64(1), out=v)
    np.bitwise_xor(v, sign, out=v)
    return v.view(np.int64)


def _lane_geometry(nbits: int, count: int) -> "tuple[int, int, int]":
    """Periodic lane layout of an ``nbits``-wide dense bitstream.

    Fixed-width fields repeat their byte/bit phase every ``lcm(nbits, 8)``
    bits, i.e. every ``L = 8 / gcd(nbits, 8)`` values.  Returns
    ``(L, period_bytes, nperiods)``: the packed stream is ``nperiods``
    repetitions of a ``period_bytes``-byte pattern, and lane ``j`` of every
    period starts at the same scalar ``(byte, bit)`` offset -- which is what
    lets pack/unpack run as a handful of whole-array ops per period word
    instead of per-value (or per-bit) work.
    """
    lanes = 8 // math.gcd(nbits, 8)
    period_bytes = nbits * lanes // 8
    nperiods = (count + lanes - 1) // lanes
    return lanes, period_bytes, nperiods


@functools.lru_cache(maxsize=None)  # at most one entry per width, 1..64
def _pack_layout(nbits: int):
    """How one *pack period* of ``nbits``-wide fields folds into big-endian
    64-bit words: ``(lanes, period_bytes, mask, weights, spills)``.

    The period is :func:`_lane_geometry`'s, repeated as often as fits one
    word (width 2 packs 32 fields a word, not 4 a byte).  ``weights`` is a
    ``(lanes, nwords)`` uint64 matrix holding, for each lane, the power of
    two that shifts its field to where it *ends*; fields never overlap, so
    ``grid @ weights`` ORs a whole period together in one pass.  A field
    that straddles a word boundary lands its low bits through that product
    (uint64 multiply wraps, dropping the high ones) and is listed in
    ``spills`` as ``(lane, word, shift)`` for its high bits.
    """
    lanes, period_bytes, _ = _lane_geometry(nbits, 1)
    fold = max(1, 8 // period_bytes)
    lanes, period_bytes = lanes * fold, period_bytes * fold
    weights = np.zeros((lanes, (period_bytes + 7) // 8), dtype=np.uint64)
    spills = []
    for j in range(lanes):
        end = (j + 1) * nbits
        word = (end - 1) >> 6
        weights[j, word] = np.uint64(1) << np.uint64(64 * (word + 1) - end)
        if end - nbits < 64 * word:
            spills.append((j, word - 1, np.uint64(end - 64 * word)))
    weights.flags.writeable = False  # shared by every call at this width
    mask = np.uint64((1 << nbits) - 1)
    return lanes, period_bytes, mask, weights, tuple(spills)


def _pack_words(values_u: np.ndarray, nbits: int) -> bytes:
    """Pack unsigned values into a dense ``nbits``-wide big-endian bitstream.

    This is the moral equivalent of xdr3dfcoord's fixed-width "smallidx"
    packing: the per-frame word width adapts to the largest delta.

    Period words, the mirror of :func:`_unpack_periods`: mask once, fold
    each period's lanes into its 64-bit words with one uint64 mat-vec
    against the width's cached lane weights (:func:`_pack_layout`), one
    cast to big-endian, one copy of each period's used bytes out -- a
    constant handful of passes at every width, and no staging copy when
    ``count`` is a whole number of periods (every full block is).  Bits of
    a value above ``nbits`` are dropped.
    """
    count = int(values_u.size)
    if nbits == 0 or count == 0:
        return b""
    if not 0 < nbits <= 64:
        raise CodecError(f"word width {nbits} outside [0, 64]")
    lanes, period_bytes, mask, weights, spills = _pack_layout(nbits)
    nperiods = -(-count // lanes)
    if count == nperiods * lanes:
        grid = values_u & mask
    else:
        grid = np.zeros(nperiods * lanes, dtype=np.uint64)
        np.bitwise_and(values_u, mask, out=grid[:count])
    grid = grid.reshape(nperiods, lanes)
    words = grid @ weights
    for j, word, shift in spills:
        words[:, word] |= grid[:, j] >> shift
    words = words.astype(">u8")
    out = words.view(np.uint8)[:, :period_bytes]
    return out.tobytes()[: (count * nbits + 7) // 8]


def _unpack_periods(
    src: np.ndarray, count: int, nbits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Period words, the mirror of :func:`_pack_words`: one path for every
    width.

    Left-justifies each lane period's bytes in ``ceil(period_bytes / 8)``
    big-endian words, converts them to native order and to contiguous
    per-word rows in one cast, then takes each lane with one right shift
    of the word holding its last bit -- plus one shift-or from the word
    before when the field straddles the boundary -- and masks once: a
    handful of full-width vector passes, no per-lane byte striding.
    """
    lanes, period_bytes, nperiods = _lane_geometry(nbits, count)
    staged = np.zeros((nperiods, -(-period_bytes // 8) * 8), dtype=np.uint8)
    flat = staged[:, :period_bytes]
    nfull = len(src) // period_bytes
    flat[:nfull] = src[: nfull * period_bytes].reshape(nfull, period_bytes)
    rem = len(src) - nfull * period_bytes
    if rem:
        flat[nfull, :rem] = src[nfull * period_bytes :]
    words = staged.view(">u8").T.astype(np.uint64, order="C")
    rows = np.empty((lanes, nperiods), dtype=np.uint64)
    for j in range(lanes):
        end = (j + 1) * nbits
        word = (end - 1) >> 6
        np.right_shift(words[word], np.uint64(64 * (word + 1) - end), out=rows[j])
        if end - nbits < 64 * word:
            rows[j] |= words[word - 1] << np.uint64(end - 64 * word)
    if nbits < 64:
        np.bitwise_and(rows, np.uint64((1 << nbits) - 1), out=rows)
    return _emit_rows(rows, count, out)


def _emit_rows(
    rows: np.ndarray, count: int, out: Optional[np.ndarray]
) -> np.ndarray:
    """Interleave per-lane ``rows`` into value order, into ``out`` if it fits.

    ``rows`` is ``(lanes, nperiods)``; value ``i`` lives at
    ``rows[i % lanes, i // lanes]``.  When the caller's destination holds a
    whole number of periods (every full-block run does), the transpose is
    written straight into it -- one copy instead of two.
    """
    lanes, nperiods = rows.shape
    if out is not None and count == lanes * nperiods:
        np.copyto(out.reshape(nperiods, lanes), rows.T)
        return out
    result = np.ascontiguousarray(rows.T).reshape(-1)[:count]
    if out is not None:
        out[:] = result
        return out
    return result


def _unpack_words(
    data, count: int, nbits: int, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Inverse of :func:`_pack_words` (same lane-periodic strategy).

    ``data`` may be ``bytes`` or a ``memoryview`` (callers slice large
    payloads as views to avoid copies); ``out``, when given, is a
    ``count``-long uint64 destination written without a staging copy.
    Widths of 8, 16, 32 and 64 bits are whole big-endian words: one
    ``frombuffer`` and one widening cast.
    """
    if nbits == 0 or count == 0:
        if out is not None:
            out[:] = 0
            return out
        return np.zeros(count, dtype=np.uint64)
    if not 0 < nbits <= 64:
        raise CodecError(f"word width {nbits} outside [0, 64]")
    nbytes = (count * nbits + 7) // 8
    if len(data) < nbytes:
        raise CodecError("packed bitstream shorter than its value count")
    if nbits in (8, 16, 32, 64):
        words = np.frombuffer(data, dtype=f">u{nbits >> 3}", count=count)
        if out is None:
            return words.astype(np.uint64)
        out[:] = words
        return out
    src = np.frombuffer(data, dtype=np.uint8, count=nbytes)
    return _unpack_periods(src, count, nbits, out)


def _width_runs(widths: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Yield ``(start_block, stop_block)`` runs of equal width.

    Full blocks hold ``_BLOCK_VALUES`` (a multiple of 8) values, so every
    block but the stream's last starts byte-aligned; a run of equal-width
    blocks can therefore be packed/unpacked as one dense bitstream whose
    bytes are exactly the concatenation of the per-block bitstreams.
    """
    nblocks = len(widths)
    b = 0
    while b < nblocks:
        e = b + 1
        while e < nblocks and widths[e] == widths[b]:
            e += 1
        yield b, e
        b = e


def _block_widths(rows: np.ndarray) -> List[bytes]:
    """Per-block word widths of each row of zigzagged values.

    ``rows`` is ``(nrows, nvalues)`` uint64; entry ``i`` of the result is
    row ``i``'s width table, one byte per ``_BLOCK_VALUES``-long block
    (the last may be short).  One segmented ``max`` over the rows as they
    lie scans a whole group of frames -- no zero-padded copy per frame.
    """
    starts = np.arange(0, rows.shape[1], _BLOCK_VALUES)
    maxima = np.maximum.reduceat(rows, starts, axis=1)
    return [bytes(map(int.bit_length, row)) for row in maxima.tolist()]


def _encode_zigzag_block(
    flat: np.ndarray, widths: bytes, allow_stored: bool = True
) -> "tuple[int, bytes]":
    """Blockwise fixed-width bit-pack + entropy-code zigzagged uint64 values.

    ``widths`` is ``flat``'s row of :func:`_block_widths`.  Returns
    ``(flags, payload)`` where ``flags`` is ``_FLAG_STORED`` when the
    bit-packed body ships as-is (deflate did not shrink it by >= 1/16) and
    ``0`` when the payload is deflated.  ``allow_stored=False`` forces the
    deflate stage -- used for I-frames so every group of frames keeps a
    zlib-checksummed anchor that rejects corrupted streams.
    """
    parts = [_PAYLOAD_HEAD.pack(len(widths), flat.size), widths]
    for b, e in _width_runs(widths):
        parts.append(
            _pack_words(flat[b * _BLOCK_VALUES : e * _BLOCK_VALUES], widths[b])
        )
    body = b"".join(parts)
    deflate = zlib.compressobj(strategy=_DEFLATE_STRATEGY)
    comp = deflate.compress(body) + deflate.flush()
    if not allow_stored or len(comp) < len(body) - len(body) // 16:
        return 0, comp
    return _FLAG_STORED, body + _STORED_CRC.pack(zlib.crc32(body))


def _frame_body(payload, count: int, stored: bool):
    """Check one frame's entropy-coded body and read its block table.

    The only per-frame pass of decode: a stored body has its CRC-32
    checked in place, a deflated one is inflated (zlib's adler32 checks
    it).  Returns ``(body, runs)``, ``runs`` being the body's layout: one
    ``(start, count, nbits, offset)`` per run of equal-width blocks --
    values from ``start`` on, packed from byte ``offset`` of ``body``.
    Every count, length and width is validated here, so unpacking the
    runs cannot fail.
    """
    if stored:
        if len(payload) < _STORED_CRC.size:
            raise CodecError("stored payload shorter than its checksum")
        body = payload[: -_STORED_CRC.size]
        (crc,) = _STORED_CRC.unpack_from(payload, len(body))
        if zlib.crc32(body) != crc:
            raise CodecError("stored payload checksum mismatch")
    else:
        try:
            body = memoryview(zlib.decompress(payload))  # sliced, not copied
        except zlib.error as exc:
            raise CodecError(f"frame payload inflate failed: {exc}") from exc
    if len(body) < _PAYLOAD_HEAD.size:
        raise CodecError("payload shorter than its prologue")
    nblocks, got = _PAYLOAD_HEAD.unpack_from(body, 0)
    if got != count:
        raise CodecError(f"payload holds {got} values, expected {count}")
    if nblocks != (count + _BLOCK_VALUES - 1) // _BLOCK_VALUES:
        raise CodecError(
            f"block table of {nblocks} blocks cannot hold {count} values"
        )
    offset = _PAYLOAD_HEAD.size + nblocks
    widths = bytes(body[_PAYLOAD_HEAD.size : offset])
    if len(widths) < nblocks:
        raise CodecError("truncated block-width table")
    runs = []
    for b, e in _width_runs(widths):
        nbits, start = widths[b], b * _BLOCK_VALUES
        run = min(e * _BLOCK_VALUES, count) - start
        nbytes = (run * nbits + 7) // 8
        if offset + nbytes > len(body):
            raise CodecError("truncated packed bitstream")
        if nbits > 64:
            raise CodecError(f"word width {nbits} outside [0, 64]")
        runs.append((start, run, nbits, offset))
        offset += nbytes
    return body, tuple(runs)


def _unpack_frames(dst: np.ndarray, runs, frames) -> None:
    """Unpack the bodies of ``frames`` -- ``(row, body)`` pairs, rows
    ascending, that share the layout ``runs`` -- into rows of ``dst``.

    One :func:`_unpack_words` call per run for all the frames: their
    packed runs are joined into one bitstream, each padded to a whole lane
    period so every frame's values start on one.  A run that fills whole
    consecutive rows lands in ``dst`` directly (only the GOF matrix, which
    is C-contiguous, takes more than one frame); otherwise one copy
    scatters it.
    """
    rows = [row for row, _ in frames]
    for start, count, nbits, offset in runs:
        nbytes = (count * nbits + 7) // 8
        if len(frames) == 1:
            _unpack_words(
                frames[0][1][offset : offset + nbytes], count, nbits,
                out=dst[rows[0], start : start + count],
            )
            continue
        lanes, period_bytes, nperiods = _lane_geometry(nbits, count)
        padded, gap = nperiods * lanes, bytes(nperiods * period_bytes - nbytes)
        end = offset + nbytes
        stream = b"".join(
            [part for _, body in frames for part in (body[offset:end], gap)]
        )
        whole_rows = padded == count == dst.shape[1]
        if whole_rows and rows[-1] - rows[0] == len(rows) - 1:
            flat = dst[rows[0] : rows[-1] + 1].reshape(-1)
            _unpack_words(stream, flat.size, nbits, out=flat)
        else:
            grid = _unpack_words(stream, len(rows) * padded, nbits)
            grid = grid.reshape(len(rows), padded)
            dst[rows, start : start + count] = grid[:, :count]


def _encode_gof(
    trajectory: Trajectory,
    start: int,
    stop: int,
    precision: float,
    box9: Tuple[float, ...],
) -> bytes:
    """Encode one group of frames; ``start`` becomes an I-frame.

    The I-frame stores its first atom absolutely plus intra-frame deltas
    along the atom axis; P-frames store temporal deltas against the
    previous frame, which are much smaller for equilibrated dynamics.

    Whole-GOF batch kernels: one quantize pass over the frame block, whose
    int64 result feeds both the I-frame's deltas and -- one subtraction
    along the frame axis -- every P-frame's, each zigzagged in place and
    width-scanned in one go; the only per-frame work left is the entropy
    stage (bit-pack, deflate).  Transient int64 state is one GOF's quanta
    and deltas, bounded by ``keyframe_interval``.
    """
    nframes = stop - start
    ints = _quantize(trajectory.coords[start:stop], precision).reshape(nframes, -1)
    # The raw origin sits outside the deflate stream, so it needs its own
    # CRC -- a flipped origin bit would otherwise silently shift every
    # coordinate in the group of frames.
    origin = ints[0, :3].astype("<i4").tobytes()
    intra = ints[:1, 3:] - ints[:1, :-3]
    temporal = ints[1:] - ints[:-1]
    del ints  # before the zigzag temporaries, which then reuse its pages
    intra, temporal = _zigzag(intra), _zigzag(temporal)
    steps = trajectory.steps[start:stop].tolist()
    times = trajectory.times_ps[start:stop].tolist()
    chunks: List[bytes] = []

    def emit(i: int, flags: int, payload: bytes) -> None:
        chunks.append(
            _HEADER.pack(
                XTC_MAGIC, trajectory.natoms, steps[i], times[i], *box9,
                float(precision), flags, len(payload),
            )
        )
        chunks.append(payload)

    sflag, block = _encode_zigzag_block(
        intra[0], _block_widths(intra)[0], allow_stored=False
    )
    emit(0, sflag, origin + _STORED_CRC.pack(zlib.crc32(origin)) + block)
    for i, (row, widths) in enumerate(zip(temporal, _block_widths(temporal)), 1):
        sflag, block = _encode_zigzag_block(row, widths)
        emit(i, _FLAG_PFRAME | sflag, block)
    return b"".join(chunks)


def encode_xtc(
    trajectory: Trajectory,
    precision: float = DEFAULT_PRECISION,
    keyframe_interval: int = 100,
) -> bytes:
    """Serialize a trajectory to an XTC-like compressed byte stream.

    ``keyframe_interval`` inserts an independently-decodable I-frame every
    N frames (video-codec style), bounding how far
    :func:`decode_frame_range` must rewind for random access.  Each group
    of frames (keyframe to keyframe) is encoded against only its own
    frames.
    """
    _check_precision(precision)
    if keyframe_interval < 1:
        raise CodecError("keyframe interval must be >= 1")
    box9 = tuple(
        float(v)
        for v in (
            trajectory.box.reshape(9)
            if trajectory.box is not None
            else np.zeros(9, dtype=np.float32)
        )
    )
    nframes = trajectory.nframes
    spans = [
        (s, min(s + keyframe_interval, nframes))
        for s in range(0, nframes, keyframe_interval)
    ]
    return b"".join(
        _encode_gof(trajectory, s, e, precision, box9) for s, e in spans
    )


def iter_frame_infos(data: bytes) -> Iterator[XtcFrameInfo]:
    """Scan frame headers without decompressing payloads."""
    offset = 0
    index = 0
    n = len(data)
    while offset < n:
        if offset + _HEADER.size > n:
            raise CodecError(f"truncated frame header at offset {offset}")
        fields = _HEADER.unpack_from(data, offset)
        magic, natoms, step, time_ps = fields[0], fields[1], fields[2], fields[3]
        payload_nbytes = fields[-1]
        if magic != XTC_MAGIC:
            raise CodecError(f"bad magic {magic} at offset {offset}")
        if natoms <= 0:
            raise CodecError(f"non-positive atom count {natoms} in frame {index}")
        _check_precision(fields[13], index)
        if offset + _HEADER.size + payload_nbytes > n:
            raise CodecError(f"truncated frame payload in frame {index}")
        yield XtcFrameInfo(
            index=index,
            offset=offset,
            header_nbytes=_HEADER.size,
            payload_nbytes=payload_nbytes,
            natoms=natoms,
            step=step,
            time_ps=time_ps,
            flags=fields[14],
            precision=fields[13],
        )
        offset += _HEADER.size + payload_nbytes
        index += 1


def count_frames(data: bytes) -> int:
    """Number of frames in an XTC stream (header scan only)."""
    return sum(1 for _ in iter_frame_infos(data))


class FrameIndex:
    """Random-access index over one XTC blob, built with a single header scan.

    Captures what :func:`iter_frame_infos` produces -- per-frame offsets and
    metadata, keyframe anchors -- so repeated :func:`decode_frame_range`
    calls (windowed streaming playback) and size queries
    (:meth:`~repro.core.decompressor.Decompressor.frame_count`,
    ``raw_nbytes``) stop rescanning every frame header: build once per blob,
    then each window costs only its own decode work.
    """

    __slots__ = ("infos", "keyframes")

    def __init__(self, infos: Sequence[XtcFrameInfo]):
        self.infos: Tuple[XtcFrameInfo, ...] = tuple(infos)
        if not self.infos:
            raise CodecError("cannot index an empty XTC stream")
        natoms = self.infos[0].natoms
        if any(i.natoms != natoms for i in self.infos):
            raise CodecError("frames disagree on atom count")
        #: Frame indices of the I-frames, ascending (header-scan order).
        self.keyframes: List[int] = [
            i.index for i in self.infos if not i.flags & _FLAG_PFRAME
        ]
        if not self.keyframes or self.keyframes[0] != 0:
            raise CodecError("stream does not begin with a keyframe")

    @classmethod
    def build(cls, data: bytes) -> "FrameIndex":
        """Index ``data`` (one full header scan, no payload inflation)."""
        return cls(iter_frame_infos(data))

    def __len__(self) -> int:
        return len(self.infos)

    @property
    def nframes(self) -> int:
        return len(self.infos)

    @property
    def natoms(self) -> int:
        return self.infos[0].natoms

    @property
    def raw_nbytes(self) -> int:
        """Total decompressed payload size of the stream (every frame
        carries the same ``natoms`` -- enforced at construction)."""
        return len(self.infos) * raw_frame_nbytes(self.infos[0].natoms)

    @property
    def stream_nbytes(self) -> int:
        """Serialized size of the indexed stream."""
        last = self.infos[-1]
        return last.offset + last.total_nbytes

    def anchor(self, frame: int) -> int:
        """Index of the nearest keyframe at or before ``frame``."""
        return self.gof(frame)[0]

    def gof(self, frame: int) -> Tuple[int, int]:
        """``(start, stop)`` span of the group of frames holding ``frame``."""
        if not 0 <= frame < len(self.infos):
            raise CodecError(f"frame {frame} outside [0, {len(self.infos)})")
        pos = bisect.bisect_right(self.keyframes, frame)
        stop = (
            self.keyframes[pos] if pos < len(self.keyframes) else len(self.infos)
        )
        return self.keyframes[pos - 1], stop

    def gofs(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` frame spans of each independently decodable GOF."""
        bounds = self.keyframes + [len(self.infos)]
        return list(zip(bounds, bounds[1:]))


def _header_box(data: bytes, offset: int) -> Optional[np.ndarray]:
    """Box matrix stored in the frame header at ``offset`` (None if zero)."""
    fields = _HEADER.unpack_from(data, offset)
    box_vals = np.asarray(fields[4:13], dtype=np.float32)
    return box_vals.reshape(3, 3) if np.any(box_vals) else None


def _decode_gof_ints(
    view: memoryview, infos: Sequence[XtcFrameInfo], natoms: int
) -> np.ndarray:
    """Decode one keyframe-anchored group of frames to absolute quantized
    ints, shape ``(nframes, natoms, 3)``.

    Batched kernel: only :func:`_frame_body` (inflate or the stored-body
    CRC check, then the block table) runs per frame.  Every other pass
    runs once per group, on one ``(nframes, natoms * 3)`` int64 matrix:
    P-frames sharing a block layout unpack as one bitstream
    (:func:`_unpack_frames`), one unzigzag covers the matrix, the I-frame
    row -- its origin, then its deltas along the atom axis -- resolves
    with one in-place ``cumsum``, and a row-wise prefix sum the P-frames'
    temporal deltas.  The group is the batch unit because its matrix stays
    in cache; a whole call's would not.  Equivalent to the per-frame
    ``prev + delta`` chain: int64 addition is associative.
    """
    nframes, width = len(infos), natoms * 3
    ints = np.empty((nframes, width), dtype=np.int64)
    udat = ints.view(np.uint64)
    layouts = {}  # P-frame layout -> [(row, body)]
    for pos, info in enumerate(infos):
        begin = info.offset + info.header_nbytes
        payload = view[begin : begin + info.payload_nbytes]
        stored = bool(info.flags & _FLAG_STORED)
        if pos == 0:
            if info.flags & _FLAG_PFRAME:
                raise CodecError("P-frame encountered with no reference frame")
            prefix = 12 + _STORED_CRC.size
            if len(payload) < prefix:
                raise CodecError("I-frame payload missing origin")
            (origin_crc,) = _STORED_CRC.unpack_from(payload, 12)
            if zlib.crc32(payload[:12]) != origin_crc:
                raise CodecError("I-frame origin checksum mismatch")
            origin = np.frombuffer(payload, dtype="<i4", count=3)
            body, runs = _frame_body(payload[prefix:], width - 3, stored)
            _unpack_frames(udat[:1, 3:], runs, [(0, body)])
        else:
            if not info.flags & _FLAG_PFRAME:
                raise CodecError(
                    f"I-frame {info.index} inside a group of frames"
                )
            body, runs = _frame_body(payload, width, stored)
            layouts.setdefault(runs, []).append((pos, body))
    for runs, frames in layouts.items():
        _unpack_frames(udat, runs, frames)
    _unzigzag(udat)
    ints[0, :3] = origin
    iframe = ints[0].reshape(natoms, 3)
    np.cumsum(iframe, axis=0, out=iframe)
    # Row-wise prefix sum: each add streams two contiguous rows, where
    # ``np.cumsum(axis=0)`` would walk columns with frame-sized strides.
    for pos in range(1, nframes):
        np.add(ints[pos], ints[pos - 1], out=ints[pos])
    return ints.reshape(nframes, natoms, 3)


def _ints_to_coords(
    ints: np.ndarray, infos: Sequence[XtcFrameInfo], out: np.ndarray
) -> None:
    """Dequantize a block of frames into float32 ``out``.

    Multiply by the float64 reciprocal instead of dividing: the float64
    intermediate can differ from true division by <= 1 ulp, far inside
    the float32 rounding of the store and the 0.5-quantum margin that
    idempotent recompression needs.  A single vectorized multiply when
    every frame shares one precision (the encoder always emits that), with
    a per-frame fallback for hand-crafted/fuzzed streams that disagree.
    """
    p0 = infos[0].precision
    if all(i.precision == p0 for i in infos):
        np.multiply(ints, 1.0 / p0, out=out, casting="unsafe")
        return
    for pos, info in enumerate(infos):
        np.multiply(ints[pos], 1.0 / info.precision, out=out[pos], casting="unsafe")


def _decode_run(
    data: bytes,
    infos: Sequence[XtcFrameInfo],
    out: np.ndarray,
    keep_from: int,
) -> None:
    """Decode a contiguous keyframe-anchored run into ``out``.

    ``out`` is a ``(len(infos) - keep_from, natoms, 3)`` float32 array
    (or view); frames before ``keep_from`` are decoded for prediction state
    but not materialized.  Each group of frames decodes through the batched
    :func:`_decode_gof_ints` kernel and dequantizes straight into its output
    slice -- no per-frame allocation, no final ``np.stack`` copy.
    """
    view = memoryview(data)  # per-frame payload slices stay zero-copy
    natoms = infos[0].natoms if infos else 0
    n = len(infos)
    pos = 0
    while pos < n:
        end = pos + 1
        while end < n and infos[end].flags & _FLAG_PFRAME:
            end += 1
        ints = _decode_gof_ints(view, infos[pos:end], natoms)
        lo = max(keep_from - pos, 0)
        if pos + lo < end:
            dst = out[pos + lo - keep_from : end - keep_from]
            _ints_to_coords(ints[lo:], infos[pos + lo : end], dst)
        pos = end


def decode_xtc(
    data: bytes,
    index: Optional[FrameIndex] = None,
) -> Trajectory:
    """Decompress an XTC stream into a :class:`Trajectory`: the
    :func:`decode_frame_range` of every frame.

    The full frame is always inflated -- the paper's point is precisely
    that an atom selection cannot happen before decompression; filter the
    result with :meth:`Trajectory.select_atoms`.

    ``index`` reuses an existing :class:`FrameIndex` instead of rescanning
    headers.
    """
    idx = index if index is not None else FrameIndex.build(data)
    return decode_frame_range(data, 0, len(idx), index=idx)


def decode_frame_range(
    data: bytes,
    start: int,
    stop: int,
    index: Optional[FrameIndex] = None,
) -> Trajectory:
    """Decode only frames ``[start, stop)`` of an XTC stream.

    Decoding rewinds to the nearest preceding keyframe (I-frame) and rolls
    forward -- at most ``keyframe_interval - 1`` extra frames of work, and
    only the requested frames are materialized.  This is the primitive the
    streaming playback layer uses to animate trajectories that do not fit
    in memory.  Passing ``index`` (a prebuilt :class:`FrameIndex`) skips the
    per-call header scan, making windowed playback O(window) instead of
    O(file) per window.
    """
    try:
        start = operator.index(start)
        stop = operator.index(stop)
    except TypeError as exc:
        raise CodecError(f"frame range bounds must be integers: {exc}") from exc
    idx = index if index is not None else FrameIndex.build(data)
    nframes = len(idx)
    if not 0 <= start < stop <= nframes:
        raise CodecError(
            f"frame range [{start}, {stop}) outside [0, {nframes})"
        )
    anchor = idx.anchor(start)  # bisection: never walks the other GOFs
    infos = idx.infos[anchor:stop]
    coords = np.empty((stop - start, idx.natoms, 3), dtype=np.float32)
    _decode_run(data, infos, coords, keep_from=start - anchor)
    kept = idx.infos[start:stop]
    return Trajectory(
        coords=coords,
        steps=[i.step for i in kept],
        times_ps=[i.time_ps for i in kept],
        box=_header_box(data, idx.infos[start].offset),
    )


# ---------------------------------------------------------------------------
# Raw (uncompressed) subset container -- what ADA stores on its backends.
# ---------------------------------------------------------------------------


def encode_raw(trajectory: Trajectory) -> bytes:
    """Serialize a trajectory as uncompressed float32 with a tiny header."""
    header = _RAW_HEADER.pack(
        RAW_MAGIC, trajectory.natoms, trajectory.nframes, 0, 0.0
    )
    steps = trajectory.steps.astype("<i8").tobytes()
    times = trajectory.times_ps.astype("<f8").tobytes()
    payload = np.ascontiguousarray(trajectory.coords, dtype="<f4").tobytes()
    return header + steps + times + payload


def _decode_one_raw(data: bytes, offset: int) -> "tuple[Trajectory, int]":
    """Decode one raw container starting at ``offset``; returns the
    trajectory and the offset just past it.

    Zero-copy: the returned trajectory's arrays are (read-only) views over
    ``data``.  The single-container case -- by far the common one -- thus
    costs no memmove at all; multi-chunk PLFS subsets copy exactly once,
    when :func:`decode_raw` splices the views together.
    """
    if len(data) - offset < _RAW_HEADER.size:
        raise CodecError("raw container shorter than its header")
    magic, natoms, nframes, _, _ = _RAW_HEADER.unpack_from(data, offset)
    if magic != RAW_MAGIC:
        raise CodecError(f"bad raw-container magic {magic}")
    off = offset + _RAW_HEADER.size
    steps = np.frombuffer(data, dtype="<i8", count=nframes, offset=off)
    off += nframes * 8
    times = np.frombuffer(data, dtype="<f8", count=nframes, offset=off)
    off += nframes * 8
    payload = nframes * natoms * BYTES_PER_COORD
    if len(data) - off < payload:
        raise CodecError(
            f"raw payload is {len(data) - off} bytes, expected {payload}"
        )
    coords = np.frombuffer(data, dtype="<f4", count=nframes * natoms * 3,
                           offset=off).reshape(nframes, natoms, 3)
    traj = Trajectory(coords=coords, steps=steps, times_ps=times)
    return traj, off + payload


def decode_raw(data: bytes) -> Trajectory:
    """Inverse of :func:`encode_raw` (exact round trip, no loss).

    Accepts a *concatenation* of raw containers over the same atom set --
    the shape of a multi-chunk PLFS subset -- and splices them frame-wise.
    A single container decodes to zero-copy views over ``data``; multiple
    containers are spliced with one copy.
    """
    parts = []
    offset = 0
    while offset < len(data):
        traj, offset = _decode_one_raw(data, offset)
        parts.append(traj)
    if not parts:
        raise CodecError("empty raw stream")
    if len(parts) == 1:
        return parts[0]
    for part in parts:
        if part.natoms != parts[0].natoms:
            raise CodecError(
                f"raw containers disagree on atom count: {parts[0].natoms} "
                f"and {part.natoms}"
            )
    return Trajectory.concatenate(parts)


def raw_container_nbytes(natoms: int, nframes: int) -> int:
    """Exact serialized size of a raw container with these dimensions."""
    return _RAW_HEADER.size + nframes * 16 + nframes * natoms * BYTES_PER_COORD

"""Frozen copies of the decode kernels ``formats/xtc.py`` shipped before
group-of-frames batching (test-only).

These are the per-frame ``_decode_delta_block`` (inflate, unpack and
unzigzag one frame), ``_decode_iframe_ints`` (origin check, a column
``cumsum``, then a separate ``+= origin`` pass) and the ``_decode_gof_ints``
that chained them frame by frame, with the ``_unzigzag`` and
``_width_runs`` they called, verbatim.  Their bit unpacker is not the live
period-word kernel but an ``np.unpackbits`` bit matrix, so a fault in the
live one cannot agree with itself here.  ``test_decode_kernels`` holds the
batched kernel to them bit for bit and error for error.  Do not optimise
this file.
"""

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np
import zlib

from repro.errors import CodecError
from repro.formats.xtc import (
    _BLOCK_VALUES,
    _FLAG_PFRAME,
    _FLAG_STORED,
    _PAYLOAD_HEAD,
    _STORED_CRC,
    XtcFrameInfo,
)


def _unpack_words(data, count, nbits, out=None):
    """Bit-matrix unpack: every field's bits, most significant first,
    shifted into a uint64 one bit column at a time."""
    values = np.zeros(count, dtype=np.uint64)
    if nbits and count:
        if not 0 < nbits <= 64:
            raise CodecError(f"word width {nbits} outside [0, 64]")
        nbytes = (count * nbits + 7) // 8
        if len(data) < nbytes:
            raise CodecError("packed bitstream shorter than its value count")
        bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, count=nbytes))
        for column in bits[: count * nbits].reshape(count, nbits).T:
            np.left_shift(values, np.uint64(1), out=values)
            np.bitwise_or(values, column, out=values)
    if out is None:
        return values
    out[:] = values
    return out


def _unzigzag(values: np.ndarray) -> np.ndarray:
    """Invert :func:`_zigzag` in place; ``values`` (uint64) is consumed."""
    v = values.astype(np.uint64, copy=False)
    # (v >> 1) ^ -(v & 1), all in uint64, reinterpreted as int64.
    sign = v & np.uint64(1)
    np.subtract(np.uint64(0), sign, out=sign)
    np.right_shift(v, np.uint64(1), out=v)
    np.bitwise_xor(v, sign, out=v)
    return v.view(np.int64)


def _width_runs(widths: Sequence[int]) -> Iterator[Tuple[int, int]]:
    """Yield ``(start_block, stop_block)`` runs of equal width."""
    nblocks = len(widths)
    b = 0
    while b < nblocks:
        e = b + 1
        while e < nblocks and widths[e] == widths[b]:
            e += 1
        yield b, e
        b = e


def _decode_delta_block(
    payload: bytes,
    expected_count: int,
    stored: bool = False,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Decode one entropy-coded delta block to int64 values.

    ``out``, when given, is an ``expected_count``-long uint64 buffer the
    unpacked values land in directly (it is un-zigzagged in place and the
    int64 view of it returned) -- batched GOF decode passes rows of its
    frame matrix here to skip a per-frame staging copy.
    """
    if stored:
        if len(payload) < _STORED_CRC.size:
            raise CodecError("stored payload shorter than its checksum")
        raw = bytes(payload[: -_STORED_CRC.size])
        (crc,) = _STORED_CRC.unpack_from(payload, len(payload) - _STORED_CRC.size)
        if zlib.crc32(raw) != crc:
            raise CodecError("stored payload checksum mismatch")
    else:
        try:
            raw = zlib.decompress(payload)
        except zlib.error as exc:
            raise CodecError(f"frame payload inflate failed: {exc}") from exc
    if len(raw) < _PAYLOAD_HEAD.size:
        raise CodecError("payload shorter than its prologue")
    nblocks, count = _PAYLOAD_HEAD.unpack_from(raw, 0)
    if count != expected_count:
        raise CodecError(f"payload holds {count} values, expected {expected_count}")
    if nblocks != (count + _BLOCK_VALUES - 1) // _BLOCK_VALUES:
        raise CodecError(f"block table of {nblocks} blocks cannot hold {count} values")
    offset = _PAYLOAD_HEAD.size
    widths = bytes(raw[offset : offset + nblocks])
    if len(widths) < nblocks:
        raise CodecError("truncated block-width table")
    offset += nblocks
    mv = memoryview(raw)  # slice payload chunks without copying
    if out is None:
        out = np.empty(count, dtype=np.uint64)
    for b, e in _width_runs(widths):
        nbits = widths[b]
        run_count = min(e * _BLOCK_VALUES, count) - b * _BLOCK_VALUES
        nbytes = (run_count * nbits + 7) // 8
        chunk = mv[offset : offset + nbytes]
        if len(chunk) < nbytes:
            raise CodecError("truncated packed bitstream")
        _unpack_words(
            chunk,
            run_count,
            nbits,
            out=out[b * _BLOCK_VALUES : b * _BLOCK_VALUES + run_count],
        )
        offset += nbytes
    return _unzigzag(out)


def _decode_iframe_ints(
    payload: bytes, natoms: int, stored: bool, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Decode an I-frame payload to its absolute quantized ints.

    ``out``, when given, is a flat ``natoms * 3`` int64 row (batched GOF
    decode passes rows of its frame matrix); returns the ``(natoms, 3)``
    view either way.
    """
    prefix = 12 + _STORED_CRC.size
    if len(payload) < prefix:
        raise CodecError("I-frame payload missing origin")
    (origin_crc,) = _STORED_CRC.unpack_from(payload, 12)
    if zlib.crc32(bytes(payload[:12])) != origin_crc:
        raise CodecError("I-frame origin checksum mismatch")
    origin = np.frombuffer(payload, dtype="<i4", count=3).astype(np.int64)
    deltas = _decode_delta_block(
        payload[prefix:], (natoms - 1) * 3, stored
    ).reshape(natoms - 1, 3)
    ints = (
        np.empty((natoms, 3), dtype=np.int64)
        if out is None
        else out.reshape(natoms, 3)
    )
    ints[0] = origin
    np.cumsum(deltas, axis=0, dtype=np.int64, out=ints[1:])
    ints[1:] += origin
    return ints


def decode_gof_ints(
    view: memoryview, infos: Sequence[XtcFrameInfo], natoms: int
) -> np.ndarray:
    """Decode one keyframe-anchored group of frames to absolute quantized
    ints, shape ``(nframes, natoms, 3)``.

    Batched kernel: every frame's entropy stage unpacks straight into one
    row of a ``(nframes, natoms * 3)`` int64 matrix, then a single
    ``np.cumsum`` along the frame axis resolves all temporal P-frame deltas
    at once.  Equivalent to the per-frame ``prev + delta`` chain (int64
    addition is associative and overflow-free at these magnitudes) but the
    Python-level loop only touches the entropy stage.
    """
    nframes = len(infos)
    ints = np.empty((nframes, natoms * 3), dtype=np.int64)
    udat = ints.view(np.uint64)
    for pos, info in enumerate(infos):
        begin = info.offset + info.header_nbytes
        payload = view[begin : begin + info.payload_nbytes]
        stored = bool(info.flags & _FLAG_STORED)
        if pos == 0:
            if info.flags & _FLAG_PFRAME:
                raise CodecError("P-frame encountered with no reference frame")
            _decode_iframe_ints(payload, natoms, stored, out=ints[0])
        else:
            if not info.flags & _FLAG_PFRAME:
                raise CodecError(
                    f"I-frame {info.index} inside a group of frames"
                )
            _decode_delta_block(payload, natoms * 3, stored, out=udat[pos])
    # Row-wise prefix sum: each add streams two contiguous rows, where
    # ``np.cumsum(axis=0)`` would walk columns with frame-sized strides.
    for pos in range(1, nframes):
        np.add(ints[pos], ints[pos - 1], out=ints[pos])
    return ints.reshape(nframes, natoms, 3)

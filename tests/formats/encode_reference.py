"""Frozen copies of the encode kernels ``formats/xtc.py`` shipped before
they were rebuilt around period words (test-only).

These are the per-lane / per-byte ``_pack_words``, the eight-pass
``_quantize``, the two-copy ``_zigzag`` and the zero-padded width scan,
verbatim.  The equivalence suites hold the live kernels to them value for
value (and error for error); ``benchmarks/bench_codec.py`` times the live
pack against :func:`pack_words`.  Do not optimise this file.
"""

import math

import numpy as np

from repro.errors import CodecError

_BLOCK_VALUES = 8192  # the container's block length, part of the format


def quantize(coords: np.ndarray, precision: float) -> np.ndarray:
    values = coords.astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise CodecError("non-finite coordinates cannot be encoded")
    ints = np.rint(values * precision)
    if np.any(np.abs(ints) > np.iinfo(np.int32).max):
        raise CodecError("coordinates overflow int32 at this precision")
    return ints.astype(np.int32)


def zigzag(values: np.ndarray) -> np.ndarray:
    v = values.astype(np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def block_widths(flat: np.ndarray) -> bytes:
    """Word width of each ``_BLOCK_VALUES``-long block of zigzagged values."""
    nvalues = flat.size
    nblocks = (nvalues + _BLOCK_VALUES - 1) // _BLOCK_VALUES
    if not nblocks:
        return b""
    padded = np.zeros(nblocks * _BLOCK_VALUES, dtype=np.uint64)
    padded[:nvalues] = flat
    maxima = padded.reshape(nblocks, _BLOCK_VALUES).max(axis=1)
    return bytes(int(m).bit_length() for m in maxima)


def pack_words(values_u: np.ndarray, nbits: int) -> bytes:
    count = int(values_u.size)
    if nbits == 0 or count == 0:
        return b""
    if not 0 < nbits <= 64:
        raise CodecError(f"word width {nbits} outside [0, 64]")
    lanes = 8 // math.gcd(nbits, 8)
    period_bytes = nbits * lanes // 8
    nperiods = (count + lanes - 1) // lanes
    values = np.zeros(nperiods * lanes, dtype=np.uint64)
    values[:count] = values_u
    if nbits < 64:
        values &= np.uint64((1 << nbits) - 1)
    values = values.reshape(nperiods, lanes)
    out = np.zeros(nperiods * period_bytes + 16, dtype=np.uint8)
    stop = (nperiods - 1) * period_bytes + 1
    for j in range(lanes):
        offset = j * nbits
        byte0, phase = offset >> 3, offset & 7
        span = (phase + nbits + 7) // 8  # bytes this lane's field touches
        lane_vals = values[:, j]
        if span <= 8:
            field = lane_vals << np.uint64(span * 8 - phase - nbits)
            for k in range(span):
                shift = np.uint64(8 * (span - 1 - k))
                out[byte0 + k : byte0 + k + stop : period_bytes] |= (
                    (field >> shift) & np.uint64(0xFF)
                ).astype(np.uint8)
        else:
            spill = phase + nbits - 64
            head = lane_vals >> np.uint64(spill)
            for k in range(8):
                shift = np.uint64(8 * (7 - k))
                out[byte0 + k : byte0 + k + stop : period_bytes] |= (
                    (head >> shift) & np.uint64(0xFF)
                ).astype(np.uint8)
            tail = (lane_vals << np.uint64(8 - spill)) & np.uint64(0xFF)
            out[byte0 + 8 : byte0 + 8 + stop : period_bytes] |= tail.astype(
                np.uint8
            )
    return out.tobytes()[: (count * nbits + 7) // 8]

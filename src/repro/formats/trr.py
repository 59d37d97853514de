"""GROMACS TRR-like full-precision trajectory format.

TRR is the lossless sibling of XTC: plain float32/float64 positions plus
optional velocities and forces behind a per-frame header.  MD engines
write TRR for exact restarts; its volume is >= raw, so an ADA deployment
sees it as another *target-application* format whose bulk belongs on the
inactive tier.

Layout here mirrors the spirit of the real format (magic 1993, per-frame
section sizes in the header) without the XDR padding minutiae.
"""

from __future__ import annotations

import struct
from typing import List, Optional

import numpy as np

from repro.errors import CodecError
from repro.formats.trajectory import Trajectory

__all__ = [
    "TRR_MAGIC",
    "decode_trr",
    "decode_trr_range",
    "encode_trr",
    "trr_frame_count",
    "trr_nbytes",
]

TRR_MAGIC = 1993

# magic, natoms, step, time, has_velocities, reserved
_HEADER = struct.Struct("<iiq f i i")
#: ``_HEADER`` as a numpy record: a stream's frame headers read as one
#: strided array.
_HEADER_RECORD = np.dtype(
    [("magic", "<i4"), ("natoms", "<i4"), ("step", "<i8"), ("time", "<f4"),
     ("vel", "<i4"), ("reserved", "<i4")]
)


def encode_trr(
    trajectory: Trajectory, velocities: Optional[np.ndarray] = None
) -> bytes:
    """Serialize a trajectory (optionally with velocities) to TRR bytes.

    ``velocities`` is ``(nframes, natoms, 3)`` float32 when given.
    """
    if velocities is not None:
        velocities = np.asarray(velocities, dtype="<f4")
        if velocities.shape != trajectory.coords.shape:
            raise CodecError(
                f"velocities shape {velocities.shape} != coords shape "
                f"{trajectory.coords.shape}"
            )
    chunks: List[bytes] = []
    coords = np.ascontiguousarray(trajectory.coords, dtype="<f4")
    for f in range(trajectory.nframes):
        chunks.append(
            _HEADER.pack(
                TRR_MAGIC,
                trajectory.natoms,
                int(trajectory.steps[f]),
                float(trajectory.times_ps[f]),
                1 if velocities is not None else 0,
                0,
            )
        )
        chunks.append(coords[f].tobytes())
        if velocities is not None:
            chunks.append(velocities[f].tobytes())
    return b"".join(chunks)


def decode_trr(data: bytes) -> "tuple[Trajectory, Optional[np.ndarray]]":
    """Parse TRR bytes into ``(trajectory, velocities-or-None)``: the
    :func:`decode_trr_range` of every frame."""
    return decode_trr_range(data, 0, trr_frame_count(data))


def _trr_geometry(data: bytes) -> "tuple[int, bool, int]":
    """``(natoms, has_velocities, frame_size)`` from the first header.

    TRR frames are self-contained and fixed-size once the atom count and
    section layout are known, so one header read makes the whole stream
    randomly addressable -- the property the windowed-ingest path relies
    on to decode a frame range without inflating the rest.
    """
    if len(data) < _HEADER.size:
        raise CodecError("truncated TRR frame header")
    magic, natoms, _step, _time, vel_flag, _ = _HEADER.unpack_from(data, 0)
    if magic != TRR_MAGIC:
        raise CodecError(f"bad TRR magic {magic} at offset 0")
    if natoms <= 0:
        raise CodecError(f"implausible TRR atom count {natoms}")
    sections = 2 if vel_flag else 1
    frame_size = _HEADER.size + natoms * 12 * sections
    return natoms, bool(vel_flag), frame_size


def _frame_headers(data: bytes, start: int, count: int) -> np.ndarray:
    """Headers of frames ``[start, start + count)``, one strided record view,
    checked against frame 0's layout: the first frame whose magic, atom
    count or velocity section differs raises."""
    natoms, has_vel, frame_size = _trr_geometry(data)
    heads = np.ndarray(
        (count,), _HEADER_RECORD, data, start * frame_size, (frame_size,)
    )
    bad = (heads["magic"] != TRR_MAGIC) | (heads["natoms"] != natoms)
    bad |= (heads["vel"] != 0) != has_vel
    if bad.any():
        f = int(bad.argmax())
        magic, f_natoms = int(heads["magic"][f]), int(heads["natoms"][f])
        f += start
        if magic != TRR_MAGIC:
            raise CodecError(f"bad TRR magic {magic} at offset {f * frame_size}")
        if f_natoms != natoms:
            raise CodecError(
                f"TRR frame {f} holds {f_natoms} atoms, frame 0 holds {natoms}"
            )
        raise CodecError("inconsistent velocity sections across frames")
    return heads


def trr_frame_count(data: bytes) -> int:
    """Frames in a TRR stream from header arithmetic alone (no decode).

    A length that is not a whole number of frames is a truncated stream,
    or streams of different atom counts spliced together: the headers at
    every frame stride tell which.
    """
    _natoms, _has_vel, frame_size = _trr_geometry(data)
    nframes, rem = divmod(len(data), frame_size)
    if rem:
        _frame_headers(data, 0, (len(data) - _HEADER.size) // frame_size + 1)
        raise CodecError(
            f"truncated TRR stream: {len(data)} bytes is not a whole number "
            f"of {frame_size}-byte frames"
        )
    return nframes


def decode_trr_range(
    data: bytes, start: int, stop: int
) -> "tuple[Trajectory, Optional[np.ndarray]]":
    """Decode frames ``[start, stop)`` only (lazy windowed ingest).

    Seeks directly to ``start * frame_size`` and touches nothing outside
    the range: headers, coordinates and velocities are each one strided
    view over the range's frames, copied out once.
    """
    natoms, has_vel, frame_size = _trr_geometry(data)
    nframes = trr_frame_count(data)
    if not 0 <= start < stop <= nframes:
        raise CodecError(
            f"frame range [{start}, {stop}) outside stream of {nframes}"
        )
    heads = _frame_headers(data, start, stop - start)

    def section(k: int) -> np.ndarray:
        offset = start * frame_size + _HEADER.size + k * natoms * 12
        shape, strides = (stop - start, natoms, 3), (frame_size, 12, 4)
        return np.ndarray(shape, "<f4", data, offset, strides).copy()

    trajectory = Trajectory(
        coords=section(0),
        steps=heads["step"].copy(),
        times_ps=heads["time"].astype(np.float64),
    )
    return trajectory, section(1) if has_vel else None


def trr_nbytes(natoms: int, nframes: int, with_velocities: bool = False) -> int:
    """Exact serialized size for these dimensions."""
    per_frame = _HEADER.size + natoms * 12 * (2 if with_velocities else 1)
    return nframes * per_frame

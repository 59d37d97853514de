"""CHARMM/NAMD DCD trajectory format (binary, uncompressed).

VMD's other workhorse format.  DCD stores each frame as three Fortran
sequential records (all x, then all y, then all z, as float32), behind a
header record starting with the magic ``'CORD'``.  Being uncompressed, a
DCD is ~the raw volume -- loading one exercises the D path without any
inflation, which is exactly how the paper's "D-" scenarios were prepared.

This implementation follows the classic 84-byte header record layout
closely enough that sizes and the magic match real files.
"""

from __future__ import annotations

import struct
from typing import List

import numpy as np

from repro.errors import CodecError
from repro.formats.trajectory import Trajectory

__all__ = [
    "DCD_MAGIC",
    "dcd_frame_count",
    "dcd_nbytes",
    "decode_dcd",
    "decode_dcd_range",
    "encode_dcd",
]

DCD_MAGIC = b"CORD"
_TITLE = b"Created by repro (ADA reproduction)".ljust(80)


def _record(payload: bytes) -> bytes:
    """One Fortran sequential record: length, payload, length."""
    marker = struct.pack("<i", len(payload))
    return marker + payload + marker


def _read_record(data: bytes, offset: int) -> "tuple[bytes, int]":
    if offset + 4 > len(data):
        raise CodecError("truncated DCD record marker")
    (length,) = struct.unpack_from("<i", data, offset)
    end = offset + 4 + length
    if length < 0 or end + 4 > len(data):
        raise CodecError("truncated DCD record payload")
    (tail,) = struct.unpack_from("<i", data, end)
    if tail != length:
        raise CodecError(f"DCD record markers disagree ({length} vs {tail})")
    return data[offset + 4 : end], end + 4


def encode_dcd(trajectory: Trajectory) -> bytes:
    """Serialize a trajectory as a DCD byte stream."""
    nframes = trajectory.nframes
    if nframes == 0:
        raise CodecError("cannot encode a trajectory of zero frames as DCD")
    natoms = trajectory.natoms
    icntrl = [0] * 20
    icntrl[0] = nframes  # NSET
    icntrl[1] = int(trajectory.steps[0])  # ISTART
    icntrl[2] = 1  # NSAVC
    icntrl[19] = 24  # CHARMM version stamp
    header = DCD_MAGIC + struct.pack("<20i", *icntrl)
    titles = struct.pack("<i", 1) + _TITLE
    natoms_rec = struct.pack("<i", natoms)

    chunks: List[bytes] = [
        _record(header),
        _record(titles),
        _record(natoms_rec),
    ]
    coords = np.ascontiguousarray(trajectory.coords, dtype="<f4")
    for f in range(nframes):
        for axis in range(3):
            chunks.append(_record(coords[f, :, axis].tobytes()))
    return b"".join(chunks)


def decode_dcd(data: bytes) -> Trajectory:
    """Parse a DCD byte stream back into a :class:`Trajectory`: the
    :func:`decode_dcd_range` of every frame.

    Accepts a concatenation of DCD files over the same atom set (the shape
    of a multi-chunk PLFS subset) and splices them frame-wise.
    """
    return decode_dcd_range(data, 0, dcd_frame_count(data))


def _scan_dcd(data: bytes) -> "List[tuple[int, int, int, int, int]]":
    """Light header scan: ``(coords_offset, nframes, natoms, istart,
    frame_bytes)`` per concatenated DCD segment.

    A segment's frames are fixed-size Fortran record triplets, so after
    the three header records the stream is randomly addressable -- the
    same property :func:`repro.formats.trr.decode_trr_range` exploits.
    The scan reads headers only; coordinate payloads stay untouched.
    """
    segments: List["tuple[int, int, int, int, int]"] = []
    offset = 0
    while offset < len(data):
        header, off = _read_record(data, offset)
        if header[:4] != DCD_MAGIC:
            raise CodecError(f"bad DCD magic {header[:4]!r}")
        icntrl = struct.unpack_from("<20i", header, 4)
        nframes, istart = icntrl[0], icntrl[1]
        _titles, off = _read_record(data, off)
        natoms_rec, off = _read_record(data, off)
        (natoms,) = struct.unpack("<i", natoms_rec)
        if natoms <= 0 or nframes < 0:
            raise CodecError(f"implausible DCD dimensions ({nframes}x{natoms})")
        if segments and natoms != segments[0][2]:
            raise CodecError(
                f"DCD segment at offset {offset} holds {natoms} atoms, "
                f"the first holds {segments[0][2]}"
            )
        frame_bytes = 3 * (8 + natoms * 4)
        end = off + nframes * frame_bytes
        if end > len(data):
            raise CodecError("truncated DCD coordinate records")
        segments.append((off, nframes, natoms, istart, frame_bytes))
        offset = end
    if not segments:
        raise CodecError("empty DCD stream")
    return segments


def dcd_frame_count(data: bytes) -> int:
    """Frames in a (possibly concatenated) DCD without touching payloads."""
    return sum(seg[1] for seg in _scan_dcd(data))


def decode_dcd_range(data: bytes, start: int, stop: int) -> Trajectory:
    """Decode frames ``[start, stop)`` of a (concatenated) DCD stream.

    Only the records inside the range are read: each segment's share is
    one ``(frames, 3, natoms + 2)`` int32 view -- every record's two
    length markers checked at once, the float32 payloads between them
    transposed straight into the output.
    """
    segments = _scan_dcd(data)
    total = sum(seg[1] for seg in segments)
    if not 0 <= start < stop <= total:
        raise CodecError(
            f"frame range [{start}, {stop}) outside stream of {total}"
        )
    natoms = segments[0][2]
    coords = np.empty((stop - start, natoms, 3), dtype=np.float32)
    steps = np.empty(stop - start, dtype=np.int64)
    base = 0  # first global frame index of the current segment
    for coords_offset, nframes, _natoms, istart, frame_bytes in segments:
        lo, hi = max(start, base) - base, min(stop, base + nframes) - base
        if lo < hi:
            records = np.frombuffer(
                data, dtype="<i4", count=(hi - lo) * 3 * (natoms + 2),
                offset=coords_offset + lo * frame_bytes,
            ).reshape(hi - lo, 3, natoms + 2)
            markers = records[:, :, [0, -1]]
            bad = (markers != natoms * 4).any(axis=2)
            if bad.any():
                f, axis = np.argwhere(bad)[0]
                raise CodecError(
                    f"DCD frame {lo + f} axis {axis}: record markers "
                    f"{markers[f, axis].tolist()}, expected {natoms * 4}"
                )
            out = slice(base + lo - start, base + hi - start)
            coords[out] = records[:, :, 1:-1].view("<f4").transpose(0, 2, 1)
            steps[out] = istart + np.arange(lo, hi)
        base += nframes
    return Trajectory(coords=coords, steps=steps)


def dcd_nbytes(natoms: int, nframes: int) -> int:
    """Exact serialized size of a DCD with these dimensions."""
    header = 8 + 84
    titles = 8 + 4 + 80
    natoms_rec = 8 + 4
    per_frame = 3 * (8 + natoms * 4)
    return header + titles + natoms_rec + nframes * per_frame

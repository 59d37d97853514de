"""Tests for the vectorized kernels, parallel GOF codec, and FrameIndex."""

import numpy as np
import pytest

from repro.errors import CodecError
from repro.formats import Trajectory, decode_xtc, encode_xtc
from repro.formats.xtc import (
    _FLAG_STORED,
    FrameIndex,
    _pack_words,
    _unpack_words,
    decode_frame_range,
    iter_frame_infos,
    resolve_workers,
)


def _traj(nframes=30, natoms=120, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-30, 30, size=(natoms, 3))
    walk = rng.normal(scale=0.25, size=(nframes, natoms, 3)).cumsum(axis=0)
    return Trajectory(coords=(base + walk).astype(np.float32))


# -- word-packing kernels ------------------------------------------------------


def _reference_pack(values_u, nbits):
    """The seed's bit-matrix pack, kept as the ground truth."""
    if nbits == 0 or values_u.size == 0:
        return b""
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.uint64)
    bits = ((values_u[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


@pytest.mark.parametrize("nbits", list(range(0, 65)))
def test_pack_words_matches_reference_all_widths(nbits):
    """Counts straddle the period (<= 64 values) and the block (8192)
    geometry: a whole number of periods takes the no-staging-copy path,
    8193 and 16389 (= 2 * 8192 + 5) leave a ragged last period."""
    rng = np.random.default_rng(nbits)
    for count in (0, 1, 2, 7, 8, 9, 63, 64, 65, 200, 8191, 8192, 8193, 16389):
        if nbits == 64:
            values = rng.integers(0, 2**63, size=count, dtype=np.uint64) * 2 + 1
        else:
            values = rng.integers(0, 2**nbits, size=count, dtype=np.uint64)
        assert _pack_words(values, nbits) == _reference_pack(values, nbits), (
            f"nbits={nbits} count={count}"
        )


@pytest.mark.parametrize("nbits", list(range(1, 64)))
def test_pack_words_drops_bits_above_the_width(nbits):
    """The mask is behaviour: a value wider than ``nbits`` packs as its low
    ``nbits`` bits and never bleeds into its neighbours' fields."""
    rng = np.random.default_rng(1000 + nbits)
    for count in (1, 9, 200, 8192, 8193):
        wide = rng.integers(0, 2**63, size=count, dtype=np.uint64) * 2 + 1
        low = wide & np.uint64((1 << nbits) - 1)
        packed = _pack_words(wide, nbits)
        assert packed == _reference_pack(wide, nbits), f"nbits={nbits} count={count}"
        assert packed == _pack_words(low, nbits)


@pytest.mark.parametrize("nbits", list(range(0, 65)))
def test_unpack_words_roundtrip_all_widths(nbits):
    rng = np.random.default_rng(100 + nbits)
    for count in (0, 1, 3, 8, 17, 64, 129, 1000):
        hi = 1 if nbits == 0 else 2 ** min(nbits, 63)
        values = rng.integers(0, hi, size=count, dtype=np.uint64)
        if nbits == 64:
            values = values * 2 + rng.integers(0, 2, size=count, dtype=np.uint64)
        if nbits == 0:
            values[:] = 0
        packed = _pack_words(values, nbits)
        out = _unpack_words(packed, count, nbits)
        np.testing.assert_array_equal(out, values, err_msg=f"nbits={nbits}")
        # out= variant must fill the caller's buffer and return it
        buf = np.empty(count, dtype=np.uint64)
        res = _unpack_words(packed, count, nbits, out=buf)
        assert res is buf
        np.testing.assert_array_equal(buf, values)


def test_unpack_words_validates_width_and_length():
    with pytest.raises(CodecError):
        _unpack_words(b"\x00", 1, 65)
    with pytest.raises(CodecError):
        _unpack_words(b"", 8, 7)  # 7 bytes needed, none given


# -- parallel GOF codec --------------------------------------------------------


@pytest.mark.parametrize("keyframe_interval", [1, 3, 100])
@pytest.mark.parametrize("workers", [2, 4])
def test_parallel_decode_bit_identical(keyframe_interval, workers):
    t = _traj(nframes=25)
    blob = encode_xtc(t, keyframe_interval=keyframe_interval)
    serial = decode_xtc(blob)
    parallel = decode_xtc(blob, workers=workers)
    np.testing.assert_array_equal(serial.coords, parallel.coords)
    np.testing.assert_array_equal(serial.steps, parallel.steps)
    np.testing.assert_array_equal(serial.times_ps, parallel.times_ps)


@pytest.mark.parametrize("keyframe_interval", [1, 3, 100])
def test_parallel_encode_bit_identical(keyframe_interval):
    t = _traj(nframes=25, seed=4)
    serial = encode_xtc(t, keyframe_interval=keyframe_interval)
    parallel = encode_xtc(t, keyframe_interval=keyframe_interval, workers=4)
    assert serial == parallel


def test_parallel_decode_with_selection():
    t = _traj(nframes=20, natoms=50)
    blob = encode_xtc(t, keyframe_interval=5)
    sel = np.arange(0, 50, 3)
    serial = decode_xtc(blob).select_atoms(sel)
    parallel = decode_xtc(blob, workers=3).select_atoms(sel)
    np.testing.assert_array_equal(serial.coords, parallel.coords)


def test_parallel_frame_range_bit_identical():
    t = _traj(nframes=27, seed=9)
    blob = encode_xtc(t, keyframe_interval=4)
    for start, stop in [(0, 27), (1, 5), (3, 17), (5, 6), (2, 22), (20, 27)]:
        serial = decode_frame_range(blob, start, stop)
        parallel = decode_frame_range(blob, start, stop, workers=4)
        np.testing.assert_array_equal(serial.coords, parallel.coords)
        np.testing.assert_array_equal(serial.steps, parallel.steps)


def test_resolve_workers():
    assert resolve_workers(None, 10) == 1
    assert resolve_workers(1, 10) == 1
    assert resolve_workers(4, 10) == 4
    assert resolve_workers(8, 3) == 3  # capped at task count
    assert resolve_workers(0, 64) >= 1  # 0 = one per CPU
    with pytest.raises(CodecError):
        resolve_workers(-1, 10)


# -- FrameIndex ----------------------------------------------------------------


def test_frame_index_anchors_and_gofs():
    t = _traj(nframes=23)
    blob = encode_xtc(t, keyframe_interval=7)
    idx = FrameIndex.build(blob)
    assert idx.nframes == 23
    assert idx.natoms == t.natoms
    assert list(idx.keyframes) == [0, 7, 14, 21]
    assert idx.anchor(0) == 0
    assert idx.anchor(6) == 0
    assert idx.anchor(7) == 7
    assert idx.anchor(22) == 21
    spans = idx.gofs()
    assert spans == [(0, 7), (7, 14), (14, 21), (21, 23)]
    assert idx.raw_nbytes == t.nbytes
    assert idx.stream_nbytes == len(blob)


def test_frame_index_empty_stream_rejected():
    with pytest.raises(CodecError, match="empty"):
        FrameIndex.build(b"")


def test_frame_index_rejects_mixed_atom_counts():
    a = encode_xtc(_traj(nframes=2, natoms=10))
    b = encode_xtc(_traj(nframes=2, natoms=11))
    with pytest.raises(CodecError, match="atom count"):
        FrameIndex.build(a + b)


def test_decode_with_prebuilt_index_matches():
    t = _traj(nframes=15)
    blob = encode_xtc(t, keyframe_interval=4)
    idx = FrameIndex.build(blob)
    np.testing.assert_array_equal(
        decode_xtc(blob).coords, decode_xtc(blob, index=idx).coords
    )
    np.testing.assert_array_equal(
        decode_frame_range(blob, 5, 9, index=idx).coords,
        decode_xtc(blob).coords[5:9],
    )


# -- stored-payload escape -----------------------------------------------------


def test_stored_escape_keeps_keyframes_deflated():
    """I-frames always deflate (the zlib checksum anchors each GOF);
    near-incompressible P-frame bodies may be stored verbatim."""
    rng = np.random.default_rng(2)
    base = rng.uniform(-30, 30, size=(400, 3))
    walk = rng.normal(scale=1.0, size=(30, 400, 3)).cumsum(axis=0)
    t = Trajectory(coords=(base + walk).astype(np.float32))
    blob = encode_xtc(t, keyframe_interval=10)
    infos = list(iter_frame_infos(blob))
    for info in infos:
        if info.is_keyframe:
            assert not info.flags & _FLAG_STORED
    assert any(info.flags & _FLAG_STORED for info in infos), (
        "thermal-noise P-frames should trip the stored escape"
    )
    np.testing.assert_allclose(decode_xtc(blob).coords, t.coords, atol=1e-2)


def test_stored_and_deflated_streams_decode_identically():
    from repro.harness.benchcodec import all_deflate_stream

    t = _traj(nframes=12, natoms=200, seed=5)
    blob = encode_xtc(t, keyframe_interval=4)
    deflated = all_deflate_stream(blob)
    assert len(deflated) != len(blob) or deflated == blob
    np.testing.assert_array_equal(
        decode_xtc(blob).coords, decode_xtc(deflated).coords
    )

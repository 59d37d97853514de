"""Tests for the XTC-like codec, including hypothesis round-trip properties."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import CodecError
from repro.formats import (
    Trajectory,
    decode_xtc,
    encode_xtc,
    iter_frame_infos,
    raw_frame_nbytes,
)
from repro.formats.xtc import (
    DEFAULT_PRECISION,
    count_frames,
    decode_raw,
    encode_raw,
    raw_container_nbytes,
)


def _traj(nframes=4, natoms=30, seed=0, scale=20.0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-scale, scale, size=(natoms, 3))
    walk = rng.normal(scale=0.5, size=(nframes, natoms, 3)).cumsum(axis=0)
    return Trajectory(coords=(base + walk).astype(np.float32))


def test_roundtrip_within_precision():
    t = _traj()
    decoded = decode_xtc(encode_xtc(t))
    tol = 0.5 / DEFAULT_PRECISION + 1e-6
    assert np.abs(decoded.coords - t.coords).max() <= tol


def test_roundtrip_preserves_steps_and_times():
    t = Trajectory(
        coords=np.zeros((3, 5, 3), dtype=np.float32),
        steps=[100, 200, 300],
        times_ps=[1.0, 2.0, 3.0],
    )
    d = decode_xtc(encode_xtc(t))
    np.testing.assert_array_equal(d.steps, t.steps)
    np.testing.assert_allclose(d.times_ps, t.times_ps, atol=1e-5)


def test_roundtrip_preserves_box():
    t = _traj()
    t.box = np.diag([50.0, 60.0, 70.0]).astype(np.float32)
    d = decode_xtc(encode_xtc(t))
    np.testing.assert_allclose(d.box, t.box, atol=1e-4)


def test_compression_beats_raw():
    """The headline property: compressed size well below raw float32."""
    t = _traj(nframes=20, natoms=500)
    blob = encode_xtc(t)
    assert len(blob) < t.nbytes / 1.5


def test_single_frame_single_atom():
    t = Trajectory(coords=np.array([[[1.0, -2.0, 3.0]]], dtype=np.float32))
    d = decode_xtc(encode_xtc(t))
    np.testing.assert_allclose(d.coords, t.coords, atol=0.01)


def test_decode_with_atom_indices_filters():
    t = _traj(natoms=10)
    d = decode_xtc(encode_xtc(t)).select_atoms(np.array([2, 5]))
    assert d.natoms == 2
    np.testing.assert_allclose(d.coords[:, 1], t.coords[:, 5], atol=0.01)


def test_concatenated_chunks_decode_as_one_stream():
    """An engine that flushes every few frames writes independent
    containers; spliced, they decode as one trajectory."""
    t = _traj(nframes=7)
    stream = b"".join(
        encode_xtc(t.slice_frames(start, start + 3)) for start in (0, 3, 6)
    )
    decoded = decode_xtc(stream)
    assert decoded.nframes == 7
    np.testing.assert_array_equal(decoded.coords, decode_xtc(encode_xtc(t)).coords)


def test_iter_frame_infos_metadata():
    t = _traj(nframes=5, natoms=17)
    blob = encode_xtc(t)
    infos = list(iter_frame_infos(blob))
    assert len(infos) == 5
    assert all(i.natoms == 17 for i in infos)
    assert [i.index for i in infos] == list(range(5))
    assert sum(i.header_nbytes + i.payload_nbytes for i in infos) == len(blob)
    assert infos[0].raw_nbytes == raw_frame_nbytes(17)


def test_count_frames():
    t = _traj(nframes=7)
    assert count_frames(encode_xtc(t)) == 7


def test_bad_magic_rejected():
    blob = bytearray(encode_xtc(_traj()))
    blob[0] ^= 0xFF
    with pytest.raises(CodecError, match="magic"):
        decode_xtc(bytes(blob))


def test_truncated_stream_rejected():
    blob = encode_xtc(_traj())
    with pytest.raises(CodecError, match="truncated"):
        list(iter_frame_infos(blob[:-10]))


def test_corrupt_payload_rejected():
    blob = bytearray(encode_xtc(_traj(nframes=1)))
    blob[-8:] = b"\x00" * 8  # stomp on deflate stream
    with pytest.raises(CodecError):
        decode_xtc(bytes(blob))


def test_empty_stream_rejected():
    with pytest.raises(CodecError, match="empty"):
        decode_xtc(b"")


def test_negative_precision_rejected():
    with pytest.raises(CodecError):
        encode_xtc(_traj(), precision=0.0)


_HEADER_PRECISION_OFFSET = 52  # "<iii f 9f" precede the precision float


@pytest.mark.parametrize(
    "precision", [float("nan"), float("inf"), float("-inf"), 1e-38, -100.0, 0.0]
)
def test_unusable_precision_rejected_on_both_sides(precision):
    """NaN compares false against everything, so a ``<= 0`` check lets it
    through: a NaN header precision used to decode to all-NaN coordinates,
    inf to all zeros, a denormal to +-inf with an overflow warning -- and
    the encoder blamed "non-finite coordinates".  Both sides now name the
    precision."""
    with pytest.raises(CodecError, match="bad precision"):
        encode_xtc(_traj(), precision=precision)
    blob = bytearray(encode_xtc(_traj(nframes=3), keyframe_interval=2))
    for info in list(iter_frame_infos(bytes(blob))):
        struct.pack_into("<f", blob, info.offset + _HEADER_PRECISION_OFFSET, precision)
    with pytest.raises(CodecError, match="bad precision"):
        decode_xtc(bytes(blob))
    with pytest.raises(CodecError, match="bad precision"):
        list(iter_frame_infos(bytes(blob)))


def test_precision_too_large_for_the_header_rejected():
    with pytest.raises(CodecError, match="bad precision"):
        encode_xtc(_traj(), precision=1e300)  # was struct's OverflowError


def test_coordinate_overflow_rejected():
    t = Trajectory(coords=np.full((1, 2, 3), 1e9, dtype=np.float32))
    with pytest.raises(CodecError, match="overflow"):
        encode_xtc(t, precision=1e6)


def test_iframe_neighbours_more_than_int32_apart_roundtrip():
    """Each quantum fits int32 (1.2e9 at precision 100) but neighbouring
    atoms are 2.4e9 quanta apart: the I-frame's intra-frame deltas used to
    be taken in int32 and wrapped, and the second atom came back at
    3.09e7 A with no error."""
    coords = np.array(
        [[[1.2e7] * 3, [-1.2e7] * 3, [5.0] * 3]], dtype=np.float32
    )
    decoded = decode_xtc(encode_xtc(Trajectory(coords=coords), precision=100.0))
    np.testing.assert_array_equal(decoded.coords, coords)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    precision=st.sampled_from([100.0, 12.5, 1000.0, 1.0]),
    keyframe_interval=st.sampled_from([1, 100]),
)
def test_property_whole_admitted_domain_roundtrips(data, precision, keyframe_interval):
    """Anything ``_quantize`` admits (|x * precision| <= int32 max) comes
    back within half a quantum plus float32 rounding -- as an I-frame and
    as a P-frame, however far apart neighbours in space or time are."""
    limit = float(np.nextafter(np.float32(2147483647 / precision), np.float32(0)))
    coords = data.draw(
        hnp.arrays(
            np.float32,
            st.tuples(st.integers(1, 3), st.integers(1, 4), st.just(3)),
            elements=st.one_of(
                st.floats(-limit, limit, width=32),
                st.sampled_from([limit, -limit, 0.0]),
            ),
        )
    )
    t = Trajectory(coords=coords)
    d = decode_xtc(
        encode_xtc(t, precision=precision, keyframe_interval=keyframe_interval)
    )
    tol = 0.5 / precision + np.abs(coords.astype(np.float64)) * 2.0**-23
    assert np.all(np.abs(d.coords.astype(np.float64) - coords) <= tol)


def test_higher_precision_means_bigger_file():
    t = _traj(nframes=10, natoms=200)
    coarse = encode_xtc(t, precision=10.0)
    fine = encode_xtc(t, precision=10000.0)
    assert len(fine) > len(coarse)


@settings(max_examples=25, deadline=None)
@given(
    nframes=st.integers(1, 6),
    natoms=st.integers(1, 40),
    seed=st.integers(0, 1000),
    scale=st.floats(0.1, 500.0),
)
def test_property_roundtrip_error_bounded(nframes, natoms, seed, scale):
    """For any trajectory, decode(encode(t)) is within half a quantum."""
    t = _traj(nframes=nframes, natoms=natoms, seed=seed, scale=scale)
    d = decode_xtc(encode_xtc(t))
    tol = 0.5 / DEFAULT_PRECISION + 1e-5 * scale
    assert np.abs(d.coords - t.coords).max() <= tol


@settings(max_examples=25, deadline=None)
@given(nframes=st.integers(1, 5), natoms=st.integers(1, 30), seed=st.integers(0, 100))
def test_property_idempotent_recompression(nframes, natoms, seed):
    """Encoding an already lossy-decoded trajectory is lossless thereafter."""
    t = _traj(nframes=nframes, natoms=natoms, seed=seed)
    once = decode_xtc(encode_xtc(t))
    twice = decode_xtc(encode_xtc(once))
    np.testing.assert_allclose(twice.coords, once.coords, atol=1e-6)


# -- raw container ----------------------------------------------------------


def test_raw_roundtrip_exact():
    t = _traj(nframes=3, natoms=12)
    d = decode_raw(encode_raw(t))
    assert d.allclose(t)
    np.testing.assert_array_equal(d.times_ps, t.times_ps)


def test_raw_container_nbytes_exact():
    t = _traj(nframes=3, natoms=12)
    assert len(encode_raw(t)) == raw_container_nbytes(12, 3)


def test_raw_bad_magic_rejected():
    blob = bytearray(encode_raw(_traj()))
    blob[0] ^= 0xFF
    with pytest.raises(CodecError, match="magic"):
        decode_raw(bytes(blob))


def test_raw_truncated_rejected():
    blob = encode_raw(_traj())
    with pytest.raises(CodecError):
        decode_raw(blob[:-4])


def test_raw_too_short_rejected():
    with pytest.raises(CodecError, match="header"):
        decode_raw(b"abc")


@settings(max_examples=20, deadline=None)
@given(nframes=st.integers(1, 5), natoms=st.integers(1, 30), seed=st.integers(0, 50))
def test_property_raw_roundtrip_lossless(nframes, natoms, seed):
    t = _traj(nframes=nframes, natoms=natoms, seed=seed)
    assert decode_raw(encode_raw(t)).allclose(t)

"""Tests for the CHARMM DCD format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.formats import Trajectory
from repro.formats.dcd import DCD_MAGIC, dcd_nbytes, decode_dcd, encode_dcd


def _traj(nframes=4, natoms=20, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(
        coords=rng.normal(size=(nframes, natoms, 3)).astype(np.float32),
        steps=100 + np.arange(nframes),
    )


def test_roundtrip_exact():
    t = _traj()
    d = decode_dcd(encode_dcd(t))
    np.testing.assert_array_equal(d.coords, t.coords)
    np.testing.assert_array_equal(d.steps, t.steps)


def test_magic_present():
    blob = encode_dcd(_traj())
    assert blob[4:8] == DCD_MAGIC


def test_size_formula_exact():
    t = _traj(nframes=3, natoms=17)
    assert len(encode_dcd(t)) == dcd_nbytes(17, 3)


def test_dcd_is_roughly_raw_volume():
    t = _traj(nframes=10, natoms=500)
    assert len(encode_dcd(t)) == pytest.approx(t.nbytes, rel=0.01)


def test_bad_magic_rejected():
    blob = bytearray(encode_dcd(_traj()))
    blob[4:8] = b"XXXX"
    with pytest.raises(CodecError, match="magic"):
        decode_dcd(bytes(blob))


def test_truncated_rejected():
    blob = encode_dcd(_traj())
    with pytest.raises(CodecError, match="truncated"):
        decode_dcd(blob[:-10])


def test_mismatched_record_markers_rejected():
    blob = bytearray(encode_dcd(_traj(nframes=1)))
    blob[-4:] = b"\x00\x00\x00\x00"
    with pytest.raises(CodecError):
        decode_dcd(bytes(blob))


def test_concatenated_files_splice():
    a, b = _traj(nframes=2, seed=1), _traj(nframes=3, seed=2)
    merged = decode_dcd(encode_dcd(a) + encode_dcd(b))
    assert merged.nframes == 5
    np.testing.assert_array_equal(merged.coords[3], b.coords[1])


def test_empty_stream_rejected():
    with pytest.raises(CodecError):
        decode_dcd(b"")


def test_decompressor_sniffs_dcd():
    from repro.core import Decompressor

    d = Decompressor()
    blob = encode_dcd(_traj())
    assert d.sniff(blob) == "dcd"
    assert not d.is_compressed(blob)
    assert d.decompress(blob).nframes == 4
    assert d.raw_nbytes(blob) == _traj().nbytes


@settings(max_examples=20, deadline=None)
@given(nframes=st.integers(1, 5), natoms=st.integers(1, 40), seed=st.integers(0, 99))
def test_property_roundtrip_lossless(nframes, natoms, seed):
    t = _traj(nframes=nframes, natoms=natoms, seed=seed)
    d = decode_dcd(encode_dcd(t))
    np.testing.assert_array_equal(d.coords, t.coords)


def test_empty_trajectory_encode_rejected():
    empty = Trajectory(coords=np.zeros((0, 5, 3), np.float32))
    with pytest.raises(CodecError, match="zero frames"):
        encode_dcd(empty)

"""Tests for frame/trajectory containers."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.formats import Frame, Trajectory


def _traj(nframes=5, natoms=10, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(coords=rng.normal(size=(nframes, natoms, 3)))


def test_frame_shape_validation():
    with pytest.raises(TopologyError):
        Frame(coords=np.zeros((4, 2)))


def test_frame_nbytes():
    f = Frame(coords=np.zeros((10, 3)))
    assert f.nbytes == 120
    assert f.natoms == 10


def test_frame_select():
    f = Frame(coords=np.arange(12, dtype=np.float32).reshape(4, 3), step=7)
    sub = f.select(np.array([0, 2]))
    assert sub.natoms == 2
    assert sub.step == 7
    np.testing.assert_array_equal(sub.coords[1], [6, 7, 8])


def test_trajectory_shape_validation():
    with pytest.raises(TopologyError):
        Trajectory(coords=np.zeros((5, 10)))


def test_trajectory_default_steps_and_times():
    t = _traj(nframes=4)
    np.testing.assert_array_equal(t.steps, [0, 1, 2, 3])
    assert t.times_ps.shape == (4,)


def test_trajectory_metadata_length_validated():
    with pytest.raises(TopologyError):
        Trajectory(coords=np.zeros((3, 2, 3)), steps=[0, 1])


def test_nbytes_formula():
    t = _traj(nframes=5, natoms=10)
    assert t.nbytes == 5 * 10 * 12


def test_iteration_yields_frames():
    t = _traj(nframes=3)
    frames = list(t)
    assert len(frames) == 3
    assert all(isinstance(f, Frame) for f in frames)
    np.testing.assert_array_equal(frames[1].coords, t.coords[1])


def test_select_atoms_across_frames():
    t = _traj(nframes=5, natoms=10)
    sub = t.select_atoms(np.array([1, 3, 5]))
    assert sub.natoms == 3
    assert sub.nframes == 5
    np.testing.assert_array_equal(sub.coords[2, 1], t.coords[2, 3])
    np.testing.assert_array_equal(sub.steps, t.steps)



@pytest.mark.parametrize(
    "selection",
    [
        np.array([7, 1, 3, 3]),
        np.array([-1, 0, -4]),
        np.arange(10) % 3 == 0,  # a mask, not the indices 0 and 1
        np.zeros(0, dtype=np.intp),
    ],
    ids=["indices", "negative", "mask", "empty"],
)
def test_select_atoms_matches_fancy_indexing(selection):
    t = _traj()
    sub = t.select_atoms(selection)
    want = t.coords[:, selection, :]
    assert sub.coords.shape == want.shape and np.array_equal(sub.coords, want)
    assert sub.coords.dtype == np.float32 and sub.coords.flags.c_contiguous
    assert np.array_equal(sub.steps, t.steps)
    assert np.array_equal(sub.times_ps, t.times_ps)


def test_slice_frames():
    t = _traj(nframes=10)
    sl = t.slice_frames(2, 5)
    assert sl.nframes == 3
    np.testing.assert_array_equal(sl.coords[0], t.coords[2])


def test_concatenate():
    a, b = _traj(nframes=2, seed=1), _traj(nframes=3, seed=2)
    both = Trajectory.concatenate([a, b])
    assert both.nframes == 5
    np.testing.assert_array_equal(both.coords[3], b.coords[1])


def test_concatenate_atom_mismatch_rejected():
    with pytest.raises(TopologyError):
        Trajectory.concatenate([_traj(natoms=4), _traj(natoms=5)])


def test_concatenate_empty_rejected():
    with pytest.raises(TopologyError):
        Trajectory.concatenate([])


def test_allclose_tolerance():
    t = _traj()
    jittered = Trajectory(
        coords=t.coords + 1e-4, steps=t.steps, times_ps=t.times_ps
    )
    assert t.allclose(jittered, atol=1e-3)
    assert not t.allclose(jittered, atol=1e-6)


def test_repr():
    assert repr(_traj(3, 7)) == "Trajectory(nframes=3, natoms=7)"

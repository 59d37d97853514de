"""``Molecule.add_frames`` appends in place; what callers see is unchanged.

The frame array used to be rebuilt with ``Trajectory.concatenate`` on
every append.  It now grows geometrically behind a ``Trajectory`` of
leading views; this suite holds the result to the concatenation it
replaced and checks the aliasing rules the new store has to respect.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import Topology
from repro.formats.trajectory import Trajectory
from repro.formats.xtc import decode_raw, encode_raw
from repro.vmd import Molecule

NATOMS = 7


def _topology():
    return Topology(
        names=["CA"] * NATOMS, resnames=["ALA"] * NATOMS, resids=range(NATOMS)
    )


def _part(rng, nframes, first_step):
    steps = np.arange(first_step, first_step + nframes)
    return Trajectory(
        coords=rng.normal(size=(nframes, NATOMS, 3)).astype(np.float32),
        steps=steps,
        times_ps=steps * 0.5,
        box=np.eye(3) * (first_step + 1),
    )


def assert_same_trajectory(got, want):
    assert got.coords.dtype == want.coords.dtype == np.float32
    assert got.coords.flags.c_contiguous
    assert np.array_equal(got.coords, want.coords)
    assert got.steps.dtype == want.steps.dtype
    assert np.array_equal(got.steps, want.steps)
    assert got.times_ps.dtype == want.times_ps.dtype
    assert np.array_equal(got.times_ps, want.times_ps)
    assert np.array_equal(got.box, want.box)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=24), st.integers(0, 2**16))
def test_equals_concatenation_after_every_append(sizes, seed):
    rng = np.random.default_rng(seed)
    mol = Molecule(0, "m", _topology())
    parts, handed_out = [], []
    for nframes in sizes:
        part = _part(rng, nframes, first_step=sum(p.nframes for p in parts))
        parts.append(part)
        mol.add_frames(part)
        assert_same_trajectory(mol.trajectory, Trajectory.concatenate(parts))
        assert mol.num_frames == sum(p.nframes for p in parts)
        assert mol.frame_nbytes == mol.num_frames * NATOMS * 12
        handed_out.append((mol.trajectory, len(parts)))
    # Every Trajectory handed out along the way still reads what it read.
    for trajectory, nparts in handed_out:
        assert_same_trajectory(trajectory, Trajectory.concatenate(parts[:nparts]))


def test_first_load_is_adopted_without_a_copy():
    rng = np.random.default_rng(0)
    first = _part(rng, 4, 0)
    mol = Molecule(0, "m", _topology())
    mol.add_frames(first)
    assert mol.trajectory is first
    assert mol.copied_nbytes == 0


def test_appends_never_write_into_the_callers_arrays():
    """The adopted first load may be a view of something bigger (or of
    read-only bytes); appending must not touch it."""
    rng = np.random.default_rng(1)
    whole = _part(rng, 10, 0)
    before = whole.coords.copy()
    mol = Molecule(0, "m", _topology())
    mol.add_frames(whole.slice_frames(0, 4))  # leading view of ``whole``
    mol.add_frames(_part(rng, 3, 4))
    assert np.array_equal(whole.coords, before)

    raw = decode_raw(encode_raw(whole))  # read-only views over bytes
    mol = Molecule(0, "m", _topology())
    mol.add_frames(raw)
    mol.add_frames(raw)
    assert mol.num_frames == 20
    assert np.array_equal(mol.trajectory.coords[10:], before)


def test_trajectory_assigned_from_outside_is_respected():
    rng = np.random.default_rng(2)
    mol = Molecule(0, "m", _topology())
    a, b, c, d = (_part(rng, 3, 3 * k) for k in range(4))
    mol.add_frames(a)
    mol.add_frames(b)  # the store now exists
    mol.trajectory = c  # ...and is bypassed
    mol.add_frames(d)
    assert_same_trajectory(mol.trajectory, Trajectory.concatenate([c, d]))


def test_appended_frames_are_writable_and_owned():
    rng = np.random.default_rng(3)
    mol = Molecule(0, "m", _topology())
    part = _part(rng, 2, 0)
    mol.add_frames(part)
    mol.add_frames(part)
    mol.trajectory.coords[3] = 0.0  # a copy: the source part is untouched
    assert part.coords[1].any()


def test_validation_is_unchanged():
    from repro.errors import TopologyError

    rng = np.random.default_rng(4)
    mol = Molecule(0, "m", _topology())
    mol.add_frames(_part(rng, 2, 0))
    with pytest.raises(TopologyError, match="expected"):
        mol.add_frames(Trajectory(np.zeros((1, NATOMS + 1, 3))))
    with pytest.raises(TopologyError, match="cannot mix"):
        mol.add_frames(_part(rng, 1, 2), atom_indices=np.arange(NATOMS))
    assert mol.num_frames == 2

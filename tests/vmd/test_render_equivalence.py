"""``GeometryBuilder.render_frame`` == its frozen original, output by output.

The geometry pass was re-expressed (flat bond gather, one ``(3, N)``
transpose shared by the bounds and the radius of gyration); the floats it
produces must not move.  ``render_reference.py`` keeps the original
expressions; every output is compared with ``array_equal``/``==``, never
a tolerance.  The second half is the zero-bond guard: a molecule without
bonds renders ``(0, 2, 3)`` segments in every representation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import build_gpcr_system, generate_trajectory
from repro.formats import Topology
from repro.formats.xtc import decode_raw, encode_raw
from repro.formats.trajectory import Trajectory
from repro.vmd import GeometryBuilder, Molecule
from repro.vmd.render import REPRESENTATIONS

from tests.vmd.render_reference import reference_render_frame


def assert_same_geometry(builder, iframe):
    got = builder.render_frame(iframe)
    want = reference_render_frame(builder, iframe)
    for name in ("segments", "center_of_mass", "bounds_min", "bounds_max"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    assert type(got.radius_of_gyration) is float
    assert got.radius_of_gyration == want.radius_of_gyration
    if want.spheres is None:
        assert got.spheres is None
    else:
        assert np.array_equal(got.spheres, want.spheres)


@pytest.fixture(scope="module")
def system():
    return build_gpcr_system(natoms_target=1800, seed=171, n_chains=2)


@pytest.mark.parametrize("representation", REPRESENTATIONS)
def test_generated_trajectory_all_outputs_equal(system, representation):
    mol = Molecule(0, "gpcr", system.topology)
    mol.add_frames(generate_trajectory(system, nframes=24, seed=172))
    builder = GeometryBuilder(mol, representation=representation)
    for iframe in range(mol.num_frames):
        assert_same_geometry(builder, iframe)


def test_subset_molecule_and_appended_store(system):
    """Frames that live in the molecule's grown backing store (views of
    a larger array) and cover an atom subset render the same."""
    traj = generate_trajectory(system, nframes=12, seed=173)
    indices = np.flatnonzero(system.topology.classes == 0)
    mol = Molecule(0, "protein", system.topology)
    for start in range(0, 12, 3):
        part = traj.slice_frames(start, start + 3).select_atoms(indices)
        mol.add_frames(part, atom_indices=indices)
    assert mol.trajectory.coords.base is not None  # view-backed
    builder = GeometryBuilder(mol)
    for iframe in range(12):
        assert_same_geometry(builder, iframe)


def test_read_only_zero_copy_frames(system):
    """A raw container decodes to read-only views over its bytes."""
    traj = generate_trajectory(system, nframes=3, seed=174)
    mol = Molecule(0, "raw", system.topology)
    mol.add_frames(decode_raw(encode_raw(traj)))
    assert not mol.trajectory.coords.flags.writeable
    builder = GeometryBuilder(mol)
    for iframe in range(3):
        assert_same_geometry(builder, iframe)


finite32 = st.floats(-1e4, 1e4, width=32, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.lists(
            st.tuples(finite32, finite32, finite32), min_size=n, max_size=n
        )
    ),
    st.sampled_from(REPRESENTATIONS),
)
def test_arbitrary_float32_clouds(points, representation):
    """Any finite float32 cloud: ties, huge spreads, repeated points,
    signed zeros -- the bits of every output agree."""
    n = len(points)
    topo = Topology(
        names=["CA" if i % 3 == 0 else "C" for i in range(n)],
        resnames=["ALA"] * n,
        resids=[i // 4 for i in range(n)],
    )
    mol = Molecule(0, "cloud", topo)
    mol.add_frames(Trajectory(np.asarray(points, dtype=np.float32)[None]))
    assert_same_geometry(GeometryBuilder(mol, representation=representation), 0)


def test_non_finite_coordinates_propagate_alike():
    topo = Topology(names=["C"] * 4, resnames=["LIG"] * 4, resids=[1] * 4)
    coords = np.zeros((1, 4, 3), dtype=np.float32)
    coords[0, 2] = (np.nan, np.inf, -np.inf)
    mol = Molecule(0, "nan", topo)
    mol.add_frames(Trajectory(coords))
    builder = GeometryBuilder(mol)
    with np.errstate(invalid="ignore"):
        got, want = builder.render_frame(0), reference_render_frame(builder, 0)
    for name in ("center_of_mass", "bounds_min", "bounds_max", "segments"):
        assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True)
    assert np.isnan(got.radius_of_gyration) and np.isnan(want.radius_of_gyration)


# -- zero bonds: ions, single-atom residues, a trace with < 2 CA ----------------


def _molecule(names, resnames, resids, spacing):
    n = len(names)
    topo = Topology(names=names, resnames=resnames, resids=resids)
    coords = np.zeros((2, n, 3), dtype=np.float32)
    coords[:, :, 0] = np.arange(n) * spacing
    coords[1] += 0.25
    mol = Molecule(0, "small", topo)
    mol.add_frames(Trajectory(coords))
    return mol


BOND_CASES = {
    # name -> (molecule, expected bond count per representation)
    "ions": (
        lambda: _molecule(["SOD", "CLA", "SOD"], ["SOD", "CLA", "SOD"], [1, 2, 3], 1.0),
        {"lines": 0, "vdw": 0, "trace": 0},
    ),
    "single_atom": (
        lambda: _molecule(["CA"], ["GLY"], [1], 1.0),
        {"lines": 0, "vdw": 0, "trace": 0},
    ),
    "far_apart": (  # one residue, but nothing within the bond cutoff
        lambda: _molecule(["N", "CA", "C"], ["ALA"] * 3, [1, 1, 1], 5.0),
        {"lines": 0, "vdw": 0, "trace": 0},
    ),
    "one_bond": (
        lambda: _molecule(["CA", "CA"], ["GLY", "GLY"], [1, 1], 1.5),
        {"lines": 1, "vdw": 1, "trace": 1},
    ),
    "many_bonds": (
        lambda: _molecule(
            ["N", "CA", "C", "O"] * 3, ["ALA"] * 12, [1] * 4 + [2] * 4 + [3] * 4, 1.2
        ),
        {"lines": 9, "vdw": 9, "trace": 2},
    ),
}


@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("case", sorted(BOND_CASES))
def test_bond_counts_zero_one_many(case, representation):
    build, expected = BOND_CASES[case]
    mol = build()
    builder = GeometryBuilder(mol, representation=representation)
    nbonds = expected[representation]
    assert builder.bonds.shape == (nbonds, 2)
    for iframe in range(mol.num_frames):
        geometry = builder.render_frame(iframe)
        assert geometry.segments.shape == (nbonds, 2, 3)
        assert geometry.segments.dtype == np.float32
        assert geometry.nsegments == nbonds
        assert_same_geometry(builder, iframe)

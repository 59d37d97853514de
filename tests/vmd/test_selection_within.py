"""Tests for distance ('within') selections."""

import numpy as np
import pytest

from repro.datagen import build_gpcr_system
from repro.formats import Topology
from repro.vmd import SelectionError, select, select_mask


@pytest.fixture()
def line_topo():
    topo = Topology(
        names=["CA", "OH2", "OH2", "OH2"],
        resnames=["ALA", "TIP3", "TIP3", "TIP3"],
        resids=[1, 2, 3, 4],
    )
    coords = np.array(
        [[0, 0, 0], [3, 0, 0], [6, 0, 0], [20, 0, 0]], dtype=np.float32
    )
    return topo, coords


def test_within_needs_coords(line_topo):
    topo, _ = line_topo
    with pytest.raises(SelectionError, match="coordinate frame"):
        select(topo, "water within 5 of protein")


def test_within_basic(line_topo):
    topo, coords = line_topo
    idx = select(topo, "water within 5 of protein", coords=coords)
    np.testing.assert_array_equal(idx, [1])  # only the 3A water
    idx = select(topo, "water within 7 of protein", coords=coords)
    np.testing.assert_array_equal(idx, [1, 2])


def test_within_includes_reference_itself(line_topo):
    topo, coords = line_topo
    idx = select(topo, "within 5 of protein", coords=coords)
    assert 0 in idx  # the protein atom itself


def test_within_composes_with_boolean_ops(line_topo):
    topo, coords = line_topo
    idx = select(topo, "not (within 7 of protein)", coords=coords)
    np.testing.assert_array_equal(idx, [3])


def test_within_of_empty_reference(line_topo):
    topo, coords = line_topo
    assert len(select(topo, "water within 5 of ligand", coords=coords)) == 0


def test_within_validation(line_topo):
    topo, coords = line_topo
    with pytest.raises(SelectionError):
        select(topo, "within of protein", coords=coords)
    with pytest.raises(SelectionError):
        select(topo, "within -2 of protein", coords=coords)
    with pytest.raises(SelectionError):
        select(topo, "within 5 protein", coords=coords)
    with pytest.raises(SelectionError):
        select_mask(topo, "water", coords=np.zeros((2, 3)))


def test_solvation_shell_on_real_system():
    """The classic query: the water nearest the protein.

    (The synthetic builder keeps a dry slab around the membrane, so the
    nearest waters sit ~15 A out; 25 A captures the first shell.)
    """
    system = build_gpcr_system(natoms_target=2500, seed=181)
    shell = select(
        system.topology, "water and within 25 of protein", coords=system.coords
    )
    all_water = select(system.topology, "water")
    assert 0 < len(shell) < len(all_water)
    # Every shell atom really is within 25 A of some protein atom.
    protein = select(system.topology, "protein")
    p = system.coords[protein].astype(np.float64)
    for atom in shell[:20]:
        d = np.linalg.norm(p - system.coords[atom], axis=1).min()
        assert d < 25.0


def test_within_matches_bruteforce():
    system = build_gpcr_system(natoms_target=1500, seed=182)
    mask = select_mask(
        system.topology, "within 8 of ion", coords=system.coords
    )
    ions = select(system.topology, "ion")
    pts = system.coords.astype(np.float64)
    ref = pts[ions]
    d = np.linalg.norm(pts[:, None, :] - ref[None, :, :], axis=2)
    brute = (d < 8.0).any(axis=1)
    brute[ions] = True
    np.testing.assert_array_equal(mask, brute)


def test_solvent_shell_on_a_20k_atom_system():
    """'within' at a size the all-pairs loop took ~12 s for (20 k atoms
    against 6 k waters): the grid answers in tens of milliseconds, and a
    random 0.5 % of the atoms, checked against the frozen all-pairs
    reference, get the same bits."""
    from tests.analysis import allpairs_reference as reference

    system = build_gpcr_system(natoms_target=20000, seed=183)
    topo, coords = system.topology, system.coords
    assert topo.natoms > 19000
    water = select_mask(topo, "water")
    mask = select_mask(topo, "within 5 of water", coords=coords)
    wetted = select(topo, "not water and within 5 of water", coords=coords)
    assert 0 < len(wetted) < (~water).sum()
    np.testing.assert_array_equal(wetted, np.flatnonzero(mask & ~water))
    sample = np.random.default_rng(183).random(topo.natoms) < 0.005
    want = reference.within(coords[sample], coords[water], 5.0)
    assert want.any() and not (want | water[sample]).all()
    np.testing.assert_array_equal(mask[sample], want | water[sample])

"""Tests for topology tables and residue classification."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.formats import AtomClass, Topology, classify_residue


@pytest.mark.parametrize(
    "resname,expected",
    [
        ("ALA", AtomClass.PROTEIN),
        ("TRP", AtomClass.PROTEIN),
        ("HSD", AtomClass.PROTEIN),
        ("TIP3", AtomClass.WATER),
        ("HOH", AtomClass.WATER),
        ("SOL", AtomClass.WATER),
        ("POPC", AtomClass.LIPID),
        ("CHL1", AtomClass.LIPID),
        ("SOD", AtomClass.ION),
        ("CLA", AtomClass.ION),
        ("NA", AtomClass.ION),
        ("LIG", AtomClass.LIGAND),
        ("HEM", AtomClass.LIGAND),
        ("XYZ", AtomClass.OTHER),
    ],
)
def test_classify_residue(resname, expected):
    assert classify_residue(resname) == expected


def test_classify_is_case_and_space_insensitive():
    assert classify_residue(" ala ") == AtomClass.PROTEIN
    assert classify_residue("popc") == AtomClass.LIPID


def _tiny_topology():
    return Topology(
        names=["N", "CA", "C", "OH2", "H1", "H2", "SOD"],
        resnames=["GLY", "GLY", "GLY", "TIP3", "TIP3", "TIP3", "SOD"],
        resids=[1, 1, 1, 2, 2, 2, 3],
    )


def test_natoms_and_len():
    topo = _tiny_topology()
    assert topo.natoms == 7
    assert len(topo) == 7


def test_column_length_mismatch_rejected():
    with pytest.raises(TopologyError):
        Topology(names=["N", "CA"], resnames=["GLY"], resids=[1, 1])


def test_chains_length_mismatch_rejected():
    with pytest.raises(TopologyError):
        Topology(names=["N"], resnames=["GLY"], resids=[1], chains=["A", "B"])


def test_classes_derived_per_atom():
    topo = _tiny_topology()
    assert list(topo.classes[:3]) == [AtomClass.PROTEIN] * 3
    assert list(topo.classes[3:6]) == [AtomClass.WATER] * 3
    assert topo.classes[6] == AtomClass.ION


def test_class_mask_and_indices():
    topo = _tiny_topology()
    assert topo.class_mask(AtomClass.PROTEIN).sum() == 3
    np.testing.assert_array_equal(
        topo.class_indices(AtomClass.WATER), [3, 4, 5]
    )


def test_counts_and_fractions():
    topo = _tiny_topology()
    counts = topo.counts_by_class()
    assert counts[AtomClass.PROTEIN] == 3
    assert counts[AtomClass.LIPID] == 0
    assert topo.protein_fraction() == pytest.approx(3 / 7)
    assert sum(topo.fraction_by_class().values()) == pytest.approx(1.0)


def test_select_preserves_classification():
    topo = _tiny_topology()
    sub = topo.select(np.array([3, 4, 5]))
    assert sub.natoms == 3
    assert all(sub.classes == AtomClass.WATER)


def test_concatenate():
    a = _tiny_topology()
    b = _tiny_topology()
    both = Topology.concatenate([a, b])
    assert both.natoms == 14
    assert both.counts_by_class()[AtomClass.PROTEIN] == 6


def test_concatenate_empty_rejected():
    with pytest.raises(TopologyError):
        Topology.concatenate([])


def test_equality():
    assert _tiny_topology() == _tiny_topology()
    other = Topology(names=["CA"], resnames=["ALA"], resids=[1])
    assert _tiny_topology() != other


def test_repr_mentions_composition():
    r = repr(_tiny_topology())
    assert "natoms=7" in r
    assert "protein=3" in r


def test_element_guessing():
    topo = Topology(names=["CA", "1HB", "OXT"], resnames=["ALA"] * 3, resids=[1] * 3)
    assert list(topo.elements) == ["C", "H", "O"]

"""Tests for the PDB reader/writer."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.formats import Topology, parse_pdb, write_pdb


def _topology():
    return Topology(
        names=["N", "CA", "C", "O", "OH2", "H1", "H2"],
        resnames=["ALA", "ALA", "ALA", "ALA", "TIP3", "TIP3", "TIP3"],
        resids=[1, 1, 1, 1, 2, 2, 2],
        chains=["A", "A", "A", "A", "W", "W", "W"],
    )


def _coords(n):
    rng = np.random.default_rng(0)
    return rng.uniform(-50, 50, size=(n, 3)).astype(np.float32)


def test_roundtrip_preserves_topology():
    topo = _topology()
    coords = _coords(topo.natoms)
    parsed, parsed_coords = parse_pdb(write_pdb(topo, coords))
    assert parsed == topo
    np.testing.assert_allclose(parsed_coords, coords, atol=1e-3)


def test_roundtrip_classes():
    topo = _topology()
    parsed, _ = parse_pdb(write_pdb(topo))
    np.testing.assert_array_equal(parsed.classes, topo.classes)


def test_write_without_coords_zero_fills():
    _, coords = parse_pdb(write_pdb(_topology()))
    assert np.all(coords == 0.0)


def test_protein_uses_atom_record_misc_uses_hetatm():
    text = write_pdb(_topology())
    lines = [l for l in text.splitlines() if l[:6].strip() in ("ATOM", "HETATM")]
    assert lines[0].startswith("ATOM")
    assert lines[4].startswith("HETATM")


def test_end_record_written():
    assert write_pdb(_topology()).rstrip().endswith("END")


def test_coords_shape_validated():
    with pytest.raises(TopologyError):
        write_pdb(_topology(), np.zeros((3, 3)))


def test_parse_rejects_empty():
    with pytest.raises(TopologyError, match="no ATOM"):
        parse_pdb("REMARK nothing here\nEND\n")


def test_parse_rejects_short_line():
    with pytest.raises(TopologyError, match="too short"):
        parse_pdb("ATOM      1  CA  ALA A   1\n")


def test_parse_rejects_bad_number():
    line = "ATOM      1  CA  ALA A   1      xx.xxx   0.000   0.000"
    with pytest.raises(TopologyError, match="malformed"):
        parse_pdb(line)


def test_parse_ignores_non_atom_records():
    topo = _topology()
    text = "HEADER    TEST\n" + write_pdb(topo) + "REMARK tail\n"
    parsed, _ = parse_pdb(text)
    assert parsed.natoms == topo.natoms


def test_serial_wraps_at_99999():
    big = Topology(
        names=["CA"] * 3, resnames=["ALA"] * 3, resids=[1, 2, 3]
    )
    text = write_pdb(big)
    assert "     1" in text.splitlines()[0]


def test_parse_pdb_stops_at_first_endmdl():
    """A multi-model file: the first conformation defines the structure."""
    topo = _topology()
    first = _coords(topo.natoms)
    bodies = [write_pdb(topo, c).rsplit("END", 1)[0] for c in (first, first + 1)]
    text = "".join(
        f"MODEL     {i + 1:>4d}\n{body}ENDMDL\n" for i, body in enumerate(bodies)
    )
    parsed, coords = parse_pdb(text + "END\n")
    assert parsed == topo
    np.testing.assert_allclose(coords, first, atol=1e-3)


def test_large_resid_wraps():
    topo = Topology(names=["CA"], resnames=["ALA"], resids=[123456])
    parsed, _ = parse_pdb(write_pdb(topo))
    assert parsed.resids[0] == 123456 % 10000

"""Columnar ``parse_pdb`` == the per-line parser, on everything.

``parse_pdb`` answers well-formed fixed-column text with a vectorised pass
and hands anything else to the per-line loop (``_parse_lines``), which
stays in the module as the reference and owns every error message.  This
suite checks the contract from both sides:

* wherever the columnar pass answers, its ``(Topology, coords)`` is equal
  to the per-line result array for array, dtype for dtype, bit for bit;
* whatever text comes in -- ragged, short, non-ASCII, exotic line breaks,
  numerics only ``int()``/``float()`` understand, numerics nobody
  understands -- ``parse_pdb`` returns what ``_parse_lines`` returns or
  raises the same ``TopologyError`` text (line numbers included);
* the fast path really is taken for ``write_pdb`` output, so the first
  bullet is not vacuous.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_workload
from repro.errors import TopologyError
from repro.formats import Topology, parse_pdb, write_pdb
from repro.formats import pdb as pdb_mod

COLUMNS = ("names", "resnames", "resids", "chains", "elements", "classes")


def _outcome(parser, text):
    try:
        topo, coords = parser(text)
    except TopologyError as exc:
        return ("error", str(exc))
    columns = tuple(
        (getattr(topo, c).dtype.str, getattr(topo, c).tolist()) for c in COLUMNS
    )
    return ("ok", columns, coords.dtype.str, coords.shape, coords.tobytes())


def assert_same(text):
    """``parse_pdb`` and the columnar pass (if it answers) agree with the
    per-line parser on ``text``; returns whether the fast path answered."""
    want = _outcome(pdb_mod._parse_lines, text)
    assert _outcome(parse_pdb, text) == want
    fast = pdb_mod._parse_columnar(text)
    if fast is not None:
        assert _outcome(lambda _: fast, text) == want
    return fast is not None


def _system(seed, natoms=60):
    rng = np.random.default_rng(seed)
    resnames = rng.choice(["ALA", "GLY", "TIP3", "POPC", "SOD", "LIG", "XYZ"], natoms)
    topo = Topology(
        names=rng.choice(["N", "CA", "C", "O", "OH2", "H1", "HG21", "1HB"], natoms),
        resnames=resnames,
        resids=np.sort(rng.integers(-5, 1200, natoms)),
        chains=rng.choice(["A", "B", "W", " "], natoms),
    )
    coords = rng.uniform(-999, 999, size=(natoms, 3)).astype(np.float32)
    coords[rng.integers(0, natoms, 5)] = 0.0
    coords[rng.integers(0, natoms, 3), 0] = -0.0001  # rounds to "-0.000"
    return topo, coords


# -- the fast path answers, and answers identically ---------------------------


@pytest.mark.parametrize("seed", range(8))
def test_write_pdb_round_trips_take_the_fast_path(seed):
    topo, coords = _system(seed)
    assert assert_same(write_pdb(topo, coords))
    assert assert_same(write_pdb(topo))  # zero coordinates


def test_build_workload_structure_takes_the_fast_path():
    text = build_workload(natoms=1500, nframes=1, seed=11).pdb_text
    assert assert_same(text)


def test_negative_zero_keeps_its_sign():
    topo, coords = _system(0, natoms=4)
    coords[:] = -0.0001
    text = write_pdb(topo, coords)
    assert "  -0.000" in text
    assert assert_same(text)
    assert np.signbit(parse_pdb(text)[1]).all()


def test_hetatm_mix_and_interleaved_records():
    topo, coords = _system(3)
    lines = write_pdb(topo, coords).splitlines()
    lines[10:10] = ["TER", "REMARK 465 missing residues", ""]
    lines.insert(0, "CRYST1   50.000   50.000   50.000  90.00  90.00  90.00 P 1")
    assert any(l.startswith("HETATM") for l in lines)
    assert assert_same("\n".join(lines) + "\n")
    assert assert_same("\n".join(lines))  # no trailing newline


def test_endmdl_cuts_off_the_first_model():
    topo, coords = _system(4, natoms=12)
    body = write_pdb(topo, coords).rsplit("END", 1)[0]
    # A leading ENDMDL (no atom seen yet) is skipped, the next one stops
    # the parse -- and hides the garbage behind it.
    text = f"ENDMDL\nMODEL        1\n{body}ENDMDL\nMODEL        2\nATOM  garbage\n"
    assert assert_same(text)
    assert parse_pdb(text)[0].natoms == 12


def test_missing_element_columns_guess_uniformly():
    topo, coords = _system(5)
    lines = write_pdb(topo, coords).splitlines()
    short = "\n".join(l[:66] for l in lines)  # element columns cut away
    assert assert_same(short)
    blank_one = list(lines)
    blank_one[7] = blank_one[7][:76] + "  "
    assert assert_same("\n".join(blank_one))
    got, _ = parse_pdb("\n".join(blank_one))
    assert got.elements[7] == topo.names[7].lstrip("0123456789")[:1]


def test_shifted_record_names_are_still_records():
    topo, coords = _system(6, natoms=6)
    lines = write_pdb(topo, coords).splitlines()
    lines[2] = " ATOM " + lines[2][6:]
    lines[3] = "  ATOM" + lines[3][6:]
    assert_same("\n".join(lines))
    assert parse_pdb("\n".join(lines))[0].natoms == 6


# -- outside the fixed layout: same answer or same error ----------------------


def _atom_lines(seed=7, natoms=10):
    topo, coords = _system(seed, natoms)
    return write_pdb(topo, coords).splitlines()


@pytest.mark.parametrize(
    "field,text",
    [
        # resid column 22:26 -- things int() takes, and things it does not
        ((22, 26), " 12 "), ((22, 26), "+12 "), ((22, 26), "1_2 "),
        ((22, 26), "12.0"), ((22, 26), "    "), ((22, 26), "- 12"),
        ((22, 26), "--12"), ((22, 26), "1 2 "), ((22, 26), "0x1f"),
        # x column 30:38 -- things float() takes, and things it does not
        ((30, 38), "1.5     "), ((30, 38), "   1.5e2"), ((30, 38), "     nan"),
        ((30, 38), "    -inf"), ((30, 38), "  +1.500"), ((30, 38), "  1_0.50"),
        ((30, 38), "     12."), ((30, 38), "    .500"), ((30, 38), "   -.500"),
        ((30, 38), "      12"), ((30, 38), "  1.2.30"), ((30, 38), "  - 1.50"),
        ((30, 38), "  --1.50"), ((30, 38), "   1-.50"), ((30, 38), "        "),
        ((30, 38), "  xx.xxx"), ((30, 38), "12345.67"), ((30, 38), "   1.5 0"),
        # z column 46:54
        ((46, 54), "1e3     "), ((46, 54), " 1.000 -"),
    ],
)
def test_numeric_fields_outside_the_plain_layout(field, text):
    lo, hi = field
    for lineno in (0, 4):
        lines = _atom_lines()
        lines[lineno] = lines[lineno][:lo] + text + lines[lineno][hi:]
        assert_same("\n".join(lines))


def test_error_line_numbers_are_unchanged():
    lines = ["REMARK"] * 3 + _atom_lines()
    lines[8] = lines[8][:30] + "  xx.xxx" + lines[8][38:]
    with pytest.raises(TopologyError, match="malformed PDB line 9:"):
        parse_pdb("\n".join(lines))
    lines[6] = lines[6][:40]
    with pytest.raises(TopologyError, match="PDB line 7 too short"):
        parse_pdb("\n".join(lines))
    assert_same("\n".join(lines))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda l: l[:60],  # one ragged line
        lambda l: l + "    ",  # one long line
        lambda l: l[:50],  # too short for coordinates
        lambda l: l[:14] + "é" + l[15:],  # non-ASCII
        lambda l: l[:14] + "\t" + l[15:],  # a blank that is not " "
        lambda l: l + "\r",  # CRLF file
        lambda l: l[:40] + "\x0c" + l[41:],  # form feed: splitlines() breaks here
        lambda l: l[:40] + "\x1c" + l[41:],  # so does a file separator
        lambda l: l[:40] + "\u2028" + l[41:],  # and a unicode line separator
        lambda l: l[:40] + "\x00" + l[41:],
        lambda l: l.lower(),
        lambda l: "",
    ],
)
def test_ragged_short_non_ascii_and_control_characters(mutate):
    for lineno in (0, 5, 9):
        lines = _atom_lines()
        lines[lineno] = mutate(lines[lineno])
        assert_same("\n".join(lines) + "\n")


def test_degenerate_inputs():
    for text in ("", "\n", "END", "ATOM", "ATOM\n", "HETATM", "ENDMDL\n" * 3,
                 "REMARK nothing here\nEND\n", " " * 80, "ATOM  " + " " * 74):
        assert_same(text)


ALPHABET = " 0123456789.-+e_nA\t\r\n\x0c\x1cé"


def _mutated(rng):
    lines = _atom_lines(seed=rng.randrange(4), natoms=rng.randrange(1, 9))
    for _ in range(rng.randrange(0, 4)):
        kind = rng.randrange(6)
        i = rng.randrange(len(lines))
        line = lines[i]
        if kind == 0 and line:
            j = rng.randrange(len(line))
            lines[i] = line[:j] + rng.choice(ALPHABET) + line[j + 1 :]
        elif kind == 1:
            lines[i] = line[: rng.randrange(len(line) + 1)]
        elif kind == 2:
            lines.insert(i, rng.choice(["TER", "ENDMDL", "MODEL 2", "", "ATOM"]))
        elif kind == 3 and len(line) >= 54:
            lo = rng.choice([22, 30, 38, 46])
            width = 4 if lo == 22 else 8
            field = "".join(rng.choice(" 0123456789.-") for _ in range(width))
            lines[i] = line[:lo] + field + line[lo + width :]
        elif kind == 4:
            lines[i] = line + " " * rng.randrange(1, 4)
        else:
            lines = [l[:66] for l in lines]
    return "\n".join(lines) + rng.choice(["", "\n"])


def test_seeded_mutations_agree():
    rng = random.Random(1704)
    fast = 0
    for _ in range(600):
        fast += assert_same(_mutated(rng))
    assert 100 < fast < 600  # both sides of the contract were exercised


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_hypothesis_mutations_agree(rng):
    assert_same(_mutated(rng))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.floats(-9999.0, 99999.0, allow_nan=False, width=32), min_size=3, max_size=30
    ),
    st.lists(st.integers(-999, 9999), min_size=1, max_size=10),
)
def test_hypothesis_written_values_parse_like_float_and_int(values, resids):
    """Any value ``%8.3f``/``%4d`` can print -- field-filling and
    column-overflowing ones included -- parses as ``float()``/``int()``
    would (or fails as they would)."""
    natoms = len(values) // 3
    topo = Topology(
        names=["CA"] * natoms,
        resnames=["ALA"] * natoms,
        resids=[resids[i % len(resids)] for i in range(natoms)],
    )
    coords = np.asarray(values[: natoms * 3], dtype=np.float64).reshape(natoms, 3)
    assert_same(write_pdb(topo, coords))

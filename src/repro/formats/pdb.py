"""Minimal fixed-column PDB reader/writer.

ADA's data pre-processor learns a dataset's structure by analyzing its
``.pdb`` file (paper §3.4 / Algorithm 1).  This module implements the subset
of the PDB format that carries that structure: ``ATOM``/``HETATM`` records
with names, residues, chains, and coordinates, plus ``TER``/``END``.

Column layout follows the wwPDB v3.3 specification for ATOM records::

    COLUMNS  FIELD          COLUMNS  FIELD
     1-6     record name    31-38    x (8.3f)
     7-11    serial         39-46    y (8.3f)
    13-16    atom name      47-54    z (8.3f)
    18-20    residue name   55-60    occupancy
    22       chain id       61-66    temp factor
    23-26    residue seq    77-78    element
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import TopologyError
from repro.formats.topology import AtomClass, Topology

__all__ = ["parse_pdb", "write_pdb"]

_RECORD_ATOM = "ATOM"
_RECORD_HETATM = "HETATM"


def write_pdb(topology: Topology, coords: Optional[np.ndarray] = None) -> str:
    """Serialize a topology (and optional coordinates) to PDB text.

    ``coords`` is ``(natoms, 3)`` in Angstroms; zeros are written when absent.
    Atom serials wrap at 99,999 as real PDB files do.
    """
    n = topology.natoms
    if coords is None:
        coords = np.zeros((n, 3), dtype=np.float32)
    coords = np.asarray(coords, dtype=np.float64)
    if coords.shape != (n, 3):
        raise TopologyError(f"coords shape {coords.shape} != ({n}, 3)")

    lines = []
    is_het = topology.classes != int(AtomClass.PROTEIN)
    for i in range(n):
        record = _RECORD_HETATM if is_het[i] else _RECORD_ATOM
        serial = (i % 99999) + 1
        name = topology.names[i]
        # PDB convention: names of <4 chars start in column 14.
        name_field = f" {name:<3s}" if len(name) < 4 else f"{name:<4s}"
        lines.append(
            f"{record:<6s}{serial:>5d} {name_field:<4.4s} "
            f"{topology.resnames[i]:<4.4s}"
            f"{topology.chains[i]:<1.1s}"
            f"{int(topology.resids[i]) % 10000:>4d}    "
            f"{coords[i, 0]:8.3f}{coords[i, 1]:8.3f}{coords[i, 2]:8.3f}"
            f"{1.00:6.2f}{0.00:6.2f}          "
            f"{topology.elements[i]:>2.2s}"
        )
    lines.append("END")
    return "\n".join(lines) + "\n"


def parse_pdb(text: str) -> Tuple[Topology, np.ndarray]:
    """Parse PDB text into ``(Topology, coords)``.

    Only ``ATOM``/``HETATM`` records are consumed; for multi-model files
    parsing stops at the first ``ENDMDL`` (the first conformation defines
    the structure).
    Raises :class:`TopologyError` on malformed records or if no atoms are
    found.

    Well-formed text (what :func:`write_pdb` and real MD tools emit) goes
    through a columnar pass over the fixed columns; anything that pass
    does not recognise -- ragged or short records, non-ASCII text, a
    numeric field outside the plain right-justified layout -- is parsed
    by the per-line loop instead, which also owns every error message.
    The two agree exactly wherever the columnar pass answers.
    """
    parsed = _parse_columnar(text)
    return parsed if parsed is not None else _parse_lines(text)


_BLANK, _NEWLINE, _MINUS, _POINT = (ord(c) for c in " \n-.")


def _distinct(field: np.ndarray) -> Tuple[list, np.ndarray]:
    """``(N, w <= 8)`` bytes -> the distinct rows as text, and each row's
    index into them.

    Structure columns repeat a handful of values thousands of times, so
    rows are deduplicated as packed integers and only the distinct ones
    go through ``str.strip``/``int()`` -- the per-line parser's own calls.
    """
    n, w = field.shape
    packed = np.zeros((n, 8), dtype=np.uint8)
    packed[:, :w] = field
    keys, inverse = np.unique(packed.view(np.uint64), return_inverse=True)
    # (An ``S8`` drops the zero padding again; the text itself has no NUL.)
    texts = [key.decode("ascii") for key in keys.view("S8").tolist()]
    return texts, inverse.reshape(n)


def _stripped(field: np.ndarray) -> np.ndarray:
    """``(N, w <= 8)`` bytes -> ``U<w>`` array of ``str.strip`` per row."""
    texts, inverse = _distinct(field)
    stripped = [text.strip() for text in texts]
    return np.asarray(stripped, dtype=f"U{field.shape[1]}")[inverse]


def _parse_integers(field: np.ndarray) -> Optional[np.ndarray]:
    """``(N, w <= 8)`` bytes -> int64 array of ``int()`` per row, or
    ``None`` if ``int()`` rejects any of them."""
    texts, inverse = _distinct(field)
    try:
        values = [int(text) for text in texts]
    except ValueError:
        return None
    return np.asarray(values, dtype=np.int64)[inverse]


def _parse_decimals(field: np.ndarray) -> Optional[np.ndarray]:
    """``(M, w <= 8)`` bytes of ``%w.<d>f`` fields -> float64, or ``None``.

    Every row must read ``blanks* '-'? digit+ '.' digit+`` with the point
    in one shared column -- what fixed-format writers emit; anything else
    (exponents, ``nan``, a stray ``+``, left-justified text) is the
    per-line parser's business.  The digits are summed as exact integers
    and divided once by the power of ten: correctly rounded division of
    two exact doubles is the correctly rounded decimal, i.e. the value
    ``float()`` returns for the same text.
    """
    cols = np.ascontiguousarray(field.T)
    width = cols.shape[0]
    points = np.flatnonzero(cols[:, 0] == _POINT)
    if points.size != 1 or not 0 < points[0] < width - 1:
        return None
    point = int(points[0])
    digit = cols - ord("0")  # uint8: wraps to >= 10 for non-digits
    is_digit = digit < 10
    # A point in the shared column, digits on both sides of it...
    bad = cols[point] != _POINT
    bad |= ~(is_digit[point - 1] & is_digit[point + 1 :].all(axis=0))
    # ...and before them nothing but blanks, then at most one minus.
    started = np.zeros(cols.shape[1], dtype=bool)  # past the leading blanks
    for col, ok in zip(cols[:point], is_digit):
        blank = col == _BLANK
        bad |= ~(ok | ((blank | (col == _MINUS)) & ~started))
        started |= ~blank
    if bad.any():
        return None
    digit[~is_digit] = 0
    weights = 10 ** np.arange(width - 2, -1, -1, dtype=np.int64)
    weights = np.insert(weights, point, 0)
    value = (weights @ digit) / float(10 ** (width - point - 1))
    np.negative(value, out=value, where=(cols[:point] == _MINUS).any(axis=0))
    return value


def _parse_columnar(text: str) -> Optional[Tuple[Topology, np.ndarray]]:
    """The fixed-column fast path of :func:`parse_pdb` (``None``: not
    applicable, use :func:`_parse_lines`)."""
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # ``str.splitlines``/``str.strip`` honour other control characters as
    # separators and whitespace; without any, "\n" is the only line break
    # and " " the only blank, which is all the byte arithmetic knows.
    if ((raw < _BLANK) & (raw != _NEWLINE)).any():
        return None
    newlines = np.flatnonzero(raw == _NEWLINE)
    starts = np.concatenate(([0], newlines + 1))
    lengths = np.concatenate((newlines, [raw.size])) - starts
    # Record names: the first six columns of every line, blank-padded.
    padded = np.concatenate((raw, np.full(6, _BLANK, dtype=np.uint8)))
    head = sliding_window_view(padded, 6)[starts]
    head[np.arange(6) >= lengths[:, None]] = _BLANK
    record = _stripped(head)
    atoms = np.flatnonzero(
        (record == _RECORD_ATOM) | (record == _RECORD_HETATM)
    )
    if atoms.size == 0:
        return None
    # Parsing stops at the first ENDMDL behind an atom record.
    endmdl = np.flatnonzero(record == "ENDMDL")
    endmdl = endmdl[endmdl > atoms[0]]
    if endmdl.size:
        atoms = atoms[atoms < endmdl[0]]
    width = int(lengths[atoms[0]])
    if width < 54 or (lengths[atoms] != width).any():
        return None
    rows = sliding_window_view(raw, width)[starts[atoms]]
    resids = _parse_integers(rows[:, 22:26])
    xyz = _parse_decimals(rows[:, 30:54].reshape(-1, 8))
    if resids is None or xyz is None:
        return None
    elements = _stripped(rows[:, 76:78]) if width >= 78 else None
    if elements is not None and (elements == "").any():
        elements = None  # let Topology guess all of them uniformly
    chains = rows[:, 21].copy()
    chains[chains == _BLANK] = ord("A")
    topo = Topology(
        names=_stripped(rows[:, 12:16]),
        resnames=_stripped(rows[:, 17:21]),
        resids=resids,
        chains=chains.view("S1"),
        elements=elements,
    )
    return topo, xyz.reshape(-1, 3).astype(np.float32)


def _parse_lines(text: str) -> Tuple[Topology, np.ndarray]:
    """The per-line reference parser: any input, every error message."""
    names, resnames, resids, chains, elements = [], [], [], [], []
    xyz = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        rec = line[:6].strip()
        if rec == "ENDMDL" and names:
            break
        if rec not in (_RECORD_ATOM, _RECORD_HETATM):
            continue
        if len(line) < 54:
            raise TopologyError(f"PDB line {lineno} too short for coordinates")
        try:
            names.append(line[12:16].strip())
            resnames.append(line[17:21].strip())
            chains.append(line[21:22].strip() or "A")
            resids.append(int(line[22:26]))
            xyz.append(
                (float(line[30:38]), float(line[38:46]), float(line[46:54]))
            )
        except ValueError as exc:
            raise TopologyError(f"malformed PDB line {lineno}: {exc}") from exc
        element = line[76:78].strip() if len(line) >= 78 else ""
        elements.append(element or None)
    if not names:
        raise TopologyError("no ATOM/HETATM records found")
    if any(e is None for e in elements):
        elements = None  # let Topology guess all of them uniformly
    topo = Topology(
        names=names,
        resnames=resnames,
        resids=resids,
        chains=chains,
        elements=elements,
    )
    return topo, np.asarray(xyz, dtype=np.float32)

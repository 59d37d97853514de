"""Molecular topology: the structural metadata ADA reads from ``.pdb`` files.

A :class:`Topology` is a column-oriented table of atoms (names, residue
names/ids, chains, elements) plus a derived per-atom :class:`AtomClass`.
Classification follows standard residue-name conventions used by GROMACS /
CHARMM force fields: amino-acid residues are protein (the paper's *active*
data); water, lipid, and ion residues make up the *MISC* (inactive) data.

The table is numpy-backed so class masks, per-class byte accounting, and
subset selection are all vectorized -- a 40k-atom GPCR system classifies in
microseconds.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Dict, Iterable, Optional, Sequence

import numpy as np

from repro.errors import TopologyError

__all__ = ["AtomClass", "classify_residue", "Topology"]


class AtomClass(IntEnum):
    """Coarse molecular class of one atom, derived from its residue name."""

    PROTEIN = 0
    WATER = 1
    LIPID = 2
    ION = 3
    LIGAND = 4
    OTHER = 5


#: The 20 standard amino acids plus common variants/termini/protonation states.
_PROTEIN_RESIDUES = frozenset(
    """
    ALA ARG ASN ASP CYS GLN GLU GLY HIS ILE LEU LYS MET PHE PRO SER THR TRP
    TYR VAL HSD HSE HSP HID HIE HIP CYX CYM ASH GLH LYN ACE NME NMA MSE SEC
    PYL
    """.split()
)

_WATER_RESIDUES = frozenset("HOH SOL WAT TIP3 TIP4 TIP5 SPC SPCE T3P T4P OH2".split())

#: Common membrane lipids (CHARMM/GROMACS names) incl. cholesterol.
_LIPID_RESIDUES = frozenset(
    "POPC POPE POPS POPG DPPC DOPC DOPE DMPC DSPC CHL1 CHOL PSM SDPC PLPC".split()
)

_ION_RESIDUES = frozenset(
    "NA CL K MG CA ZN SOD CLA POT MG2 CAL ZN2 LIT RUB CES BAR FE NA+ CL- K+".split()
)

#: Common small-molecule ligand residue names (incl. the generic LIG/UNK/DRG).
_LIGAND_RESIDUES = frozenset("LIG UNK UNL DRG INH HEM ATP ADP GTP GDP NAD FAD".split())


def classify_residue(resname: str) -> AtomClass:
    """Map a residue name to its :class:`AtomClass`.

    Unknown residue names classify as :attr:`AtomClass.OTHER`, which the
    default tag policy folds into MISC -- unknown data is inactive until a
    scientist says otherwise, mirroring ADA's conservative default.
    """
    name = resname.strip().upper()
    if name in _PROTEIN_RESIDUES:
        return AtomClass.PROTEIN
    if name in _WATER_RESIDUES:
        return AtomClass.WATER
    if name in _LIPID_RESIDUES:
        return AtomClass.LIPID
    if name in _ION_RESIDUES:
        return AtomClass.ION
    if name in _LIGAND_RESIDUES:
        return AtomClass.LIGAND
    return AtomClass.OTHER


class Topology:
    """Column-oriented atom table with vectorized class queries.

    Parameters mirror PDB columns.  All sequences must share one length.
    """

    def __init__(
        self,
        names: Sequence[str],
        resnames: Sequence[str],
        resids: Sequence[int],
        chains: Optional[Sequence[str]] = None,
        elements: Optional[Sequence[str]] = None,
    ):
        n = len(names)
        if len(resnames) != n or len(resids) != n:
            raise TopologyError(
                f"column length mismatch: names={n} resnames={len(resnames)} "
                f"resids={len(resids)}"
            )
        if chains is not None and len(chains) != n:
            raise TopologyError("chains column length mismatch")
        if elements is not None and len(elements) != n:
            raise TopologyError("elements column length mismatch")
        self.names = np.asarray(names, dtype="U6")
        self.resnames = np.asarray(resnames, dtype="U6")
        self.resids = np.asarray(resids, dtype=np.int64)
        self.chains = (
            np.asarray(chains, dtype="U2")
            if chains is not None
            else np.full(n, "A", dtype="U2")
        )
        self.elements = (
            np.asarray(elements, dtype="U2")
            if elements is not None
            else _guess_elements(self.names)
        )
        self.classes = self._classify()

    # -- construction helpers -------------------------------------------------

    def _classify(self) -> np.ndarray:
        """Per-atom class codes, vectorized over the unique residue names."""
        unique, inverse = np.unique(self.resnames, return_inverse=True)
        codes = np.array([classify_residue(r) for r in unique], dtype=np.int8)
        return codes[inverse]

    @classmethod
    def concatenate(cls, parts: Iterable["Topology"]) -> "Topology":
        """Stack several topologies into one (resids are kept as-is)."""
        parts = list(parts)
        if not parts:
            raise TopologyError("cannot concatenate zero topologies")
        return cls(
            names=np.concatenate([p.names for p in parts]),
            resnames=np.concatenate([p.resnames for p in parts]),
            resids=np.concatenate([p.resids for p in parts]),
            chains=np.concatenate([p.chains for p in parts]),
            elements=np.concatenate([p.elements for p in parts]),
        )

    # -- basic queries ---------------------------------------------------------

    @property
    def natoms(self) -> int:
        return int(self.names.shape[0])

    def __len__(self) -> int:
        return self.natoms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            np.array_equal(self.names, other.names)
            and np.array_equal(self.resnames, other.resnames)
            and np.array_equal(self.resids, other.resids)
            and np.array_equal(self.chains, other.chains)
        )

    def __repr__(self) -> str:
        counts = self.counts_by_class()
        mix = ", ".join(f"{k.name.lower()}={v}" for k, v in counts.items() if v)
        return f"Topology(natoms={self.natoms}, {mix})"

    def class_mask(self, atom_class: AtomClass) -> np.ndarray:
        """Boolean mask of atoms belonging to ``atom_class``."""
        return self.classes == int(atom_class)

    def class_indices(self, atom_class: AtomClass) -> np.ndarray:
        """Sorted atom indices belonging to ``atom_class``."""
        return np.flatnonzero(self.class_mask(atom_class))

    def counts_by_class(self) -> Dict[AtomClass, int]:
        """Atom count per class (all six classes, zeros included)."""
        counts = np.bincount(self.classes, minlength=len(AtomClass))
        return {cls: int(counts[int(cls)]) for cls in AtomClass}

    def fraction_by_class(self) -> Dict[AtomClass, float]:
        """Atom-count fraction per class."""
        n = max(self.natoms, 1)
        return {cls: cnt / n for cls, cnt in self.counts_by_class().items()}

    def protein_fraction(self) -> float:
        """Fraction of atoms that are protein -- the paper's 'active' share."""
        return self.fraction_by_class()[AtomClass.PROTEIN]

    def select(self, indices: np.ndarray) -> "Topology":
        """Row subset as a new :class:`Topology`."""
        indices = np.asarray(indices)
        return Topology(
            names=self.names[indices],
            resnames=self.resnames[indices],
            resids=self.resids[indices],
            chains=self.chains[indices],
            elements=self.elements[indices],
        )


def _guess_elements(names: np.ndarray) -> np.ndarray:
    """Guess an element symbol from each atom name (first alpha char)."""
    out = np.empty(names.shape[0], dtype="U2")
    for i, name in enumerate(names):
        stripped = name.strip().lstrip("0123456789")
        out[i] = stripped[:1].upper() if stripped else "X"
    return out

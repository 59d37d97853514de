"""Residue/atom contact analysis.

Contact maps and native-contact fractions are the observables GPCR papers
actually report (the CB1 activation studies the paper's datasets come
from track helix-helix contacts).  Every contact is decided by the exact
neighbour-grid kernel in :mod:`repro.analysis.neighbors`, so time and
memory follow the number of contacts, not the square of the selection --
only :func:`contact_map`, whose *result* is an ``(N, N)`` matrix, is
quadratic in anything.  Each frame becomes float64 rows once, for the
count and the native-pair test alike.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.analysis.neighbors import (
    _count_self_pairs,
    _pairs_within,
    _rows,
    self_pairs,
)
from repro.errors import TopologyError
from repro.formats.trajectory import Trajectory

__all__ = [
    "contact_map",
    "contact_count",
    "frame_contact_counts",
    "native_contact_fraction",
]

Pairs = Tuple[np.ndarray, np.ndarray]


def _frame_pairs(
    frame_coords: np.ndarray, cutoff: float, selection: Optional[np.ndarray]
) -> Tuple[int, Pairs]:
    """``(natoms, (i, j))``: one frame's contacts as ``i < j`` pairs."""
    coords = np.asarray(frame_coords)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise TopologyError(f"frame coords shape {coords.shape} invalid")
    if cutoff <= 0:
        raise TopologyError("cutoff must be positive")
    if selection is not None:
        coords = coords[np.asarray(selection)]
    return coords.shape[0], self_pairs(coords, cutoff)


def contact_map(
    frame_coords: np.ndarray,
    cutoff: float = 8.0,
    selection: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Symmetric boolean contact matrix for one frame."""
    natoms, (i, j) = _frame_pairs(frame_coords, cutoff, selection)
    out = np.zeros((natoms, natoms), dtype=bool)
    out[i, j] = True
    out[j, i] = True
    return out


def native_pairs(
    frame_coords: np.ndarray,
    cutoff: float,
    selection: Optional[np.ndarray] = None,
) -> Pairs:
    """A reference frame's contacts as ``i < j`` index pairs -- the native
    map in O(contacts) memory.  Raises if the frame has none."""
    _, pairs = _frame_pairs(frame_coords, cutoff, selection)
    if pairs[0].size == 0:
        raise TopologyError("reference frame has no contacts at this cutoff")
    return pairs


def pair_series(
    coords: np.ndarray, cutoff: float, native: Optional[Pairs] = None
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-frame *unordered* contact counts for an ``(F, N, 3)`` stack and,
    given ``native`` index pairs, how many of those are in contact.

    The native pairs go through the very distance test that found them in
    their reference frame, so ``overlap`` equals the count of native pairs
    among the frame's contacts without looking one up in the other.
    """
    stack = np.asarray(coords)
    if stack.ndim != 3 or stack.shape[2] != 3:
        raise TopologyError(f"frame stack shape {stack.shape} invalid")
    if cutoff <= 0:
        raise TopologyError("cutoff must be positive")
    counts = np.zeros(stack.shape[0], dtype=np.int64)
    overlap = np.zeros_like(counts) if native is not None else None
    for f, frame in enumerate(stack):
        xyz = _rows(frame)
        counts[f] = _count_self_pairs(xyz, cutoff)
        if native is not None:
            overlap[f] = np.count_nonzero(_pairs_within(xyz, *native, cutoff))
    return counts, overlap


def frame_contact_counts(
    coords: np.ndarray,
    cutoff: float,
    native: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Per-frame contact-matrix sums for an ``(F, N, 3)`` stack.

    Returns ``(counts, overlap)``: ``counts[i]`` is frame *i*'s full
    (both-orders) contact-matrix sum -- halve it for unordered pairs --
    and, when a boolean ``native`` map is given, ``overlap[i]`` is the
    count of native contacts present in frame *i*.  Every pair goes
    through the same float64 subtract/square/sum/compare as the
    single-frame :func:`contact_map`, so the results are bit-identical to
    summing per-frame maps.
    """
    pairs = None
    if native is not None:
        i, j = np.nonzero(native)
        off_diagonal = i != j
        pairs = (i[off_diagonal], j[off_diagonal])
    counts, overlap = pair_series(coords, cutoff, native=pairs)
    return 2 * counts, overlap


def contact_count(
    trajectory: Trajectory,
    cutoff: float = 8.0,
    selection: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-frame number of (unordered) contacts."""
    if selection is not None:
        trajectory = trajectory.select_atoms(selection)
    return pair_series(trajectory.coords, cutoff)[0]


def native_contact_fraction(
    trajectory: Trajectory,
    reference_frame: int = 0,
    cutoff: float = 8.0,
    selection: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Q(t): fraction of the reference frame's contacts present per frame.

    The classic folding/activation order parameter.  The reference pairs
    are found once and shared across the frame pass.
    """
    if not 0 <= reference_frame < trajectory.nframes:
        raise TopologyError(f"reference frame {reference_frame} out of range")
    if selection is not None:
        trajectory = trajectory.select_atoms(selection)
    native = native_pairs(trajectory.coords[reference_frame], cutoff)
    _, overlap = pair_series(trajectory.coords, cutoff, native=native)
    return overlap / native[0].size

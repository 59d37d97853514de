"""Exact fixed-radius neighbour search on a uniform grid (pure numpy).

Contact analysis and ``within`` selections ask one question: which pairs
of points lie closer than a cutoff?  The all-pairs answer costs O(N^2)
time and memory; this module answers it in O(N + candidates) with the
classic cell list, and **exactly**:

* Points are binned into cubic cells of edge >= cutoff, so every pair
  within the cutoff sits in the same or in adjacent cells.  The binning
  only has to be *conservative* -- it proposes a superset of candidate
  pairs and never decides a contact.  The edge carries a relative slack
  (:data:`_SLACK`) far above the rounding error of the cell-index
  arithmetic, so a pair at the cutoff can never land two cells apart.
* Each candidate then goes through the float64 expression the all-pairs
  code applied -- subtract, square, left-to-right three-term sum,
  ``< cutoff**2`` -- on the original coordinates.  ``d2(i, j)`` and
  ``d2(j, i)`` are the same IEEE value (``a - b == -(b - a)``), so one
  evaluation per unordered pair decides both orders.  Results are
  therefore bit-identical to all-pairs by construction, not by tolerance.

Memory never scales with the bounding box: occupied cells are found by
sorting atoms on a linear cell key and binary-searching it, and the cell
count per axis is capped (:data:`_MAX_CELLS`; a far outlier widens the
cells, it allocates nothing).  Points with a non-finite coordinate are
left out of the grid: they are within the cutoff of nothing.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = ["any_within", "count_self_pairs", "pairs_within", "self_pairs"]

#: Cells per axis at most; three padded axes then fit one int64 key.
_MAX_CELLS = 1 << 20

#: Cell edge over cutoff.  Cell indices are computed with an absolute
#: error below ``_MAX_CELLS * 2**-51`` cells; the slack keeps two points
#: within the cutoff strictly less than one cell apart regardless.
_SLACK = 1.0 + 2.0**-20

#: Candidate pairs evaluated per pass.  Bounds the transient index and
#: distance arrays (a large cutoff makes candidates approach all pairs)
#: and keeps them cache-resident; the result is the same at any value.
_CHUNK = 1 << 16

_SHELL = np.array(
    [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
    ],
    dtype=np.int64,
)
#: The 13 neighbour offsets that sort after the home cell: with the home
#: cell's own later atoms they cover every unordered pair exactly once.
_HALF_SHELL = _SHELL[14:]


class _Grid:
    """Points sorted by the key of the cell they fall in.

    Built from the points themselves, the lattice spans their finite
    bounding box padded by one empty cell per side, so a shell offset from
    an occupied cell never wraps a key.  Built ``like`` another grid, the
    points are binned on that grid's lattice, pad cells included (an
    offset that wraps from a pad cell lands on another pad cell, which
    that grid leaves empty), and those outside the padded box are dropped:
    nothing of that grid is within reach of them.

    ``atoms`` are the kept points' indices in cell order, ``xyz`` their
    float64 coordinates as three contiguous rows in the same order, and
    ``cell_key/cell_start/cell_count`` describe the occupied cells.
    """

    __slots__ = (
        "lo", "edge", "dims", "atoms", "xyz",
        "cell_key", "cell_start", "cell_count",
    )

    def __init__(self, pts: np.ndarray, cutoff: float, like: "_Grid" = None):
        # Binned at half scale: the extent of any finite float64 cloud is
        # then itself finite.
        half = pts * 0.5
        if like is None:
            keep = np.flatnonzero(np.isfinite(half).all(axis=1))
            half = half[keep]
            self.lo = half.min(axis=0, initial=np.inf)
            span = half.max(axis=0, initial=-np.inf) - self.lo
            self.edge = max(
                0.5 * cutoff * _SLACK, span.max(initial=0.0) / _MAX_CELLS
            )
            cells = ((half - self.lo) / self.edge).astype(np.int64) + 1
            self.dims = cells.max(axis=0, initial=0) + 2
        else:
            self.lo, self.edge, self.dims = like.lo, like.edge, like.dims
            scaled = (half - self.lo) / self.edge
            # NaN compares False, so non-finite points drop out here too.
            keep = np.flatnonzero(
                ((scaled >= -1.0) & (scaled < self.dims - 1)).all(axis=1)
            )
            cells = np.floor(scaled[keep]).astype(np.int64) + 1
        key = cells[:, 0] * self.dims[1] + cells[:, 1]
        key = key * self.dims[2] + cells[:, 2]
        order = np.argsort(key, kind="stable")
        key = key[order]
        self.atoms = keep[order]
        self.xyz = np.ascontiguousarray(pts[self.atoms].T)
        # A cell starts wherever the sorted key changes (and at point 0).
        self.cell_start = np.flatnonzero(np.diff(key, prepend=key[:1] - 1))
        self.cell_key = key[self.cell_start]
        self.cell_count = np.diff(self.cell_start, append=key.size)

    def shell(
        self, query: "_Grid", offsets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(starts, counts)``, each ``(len(offsets), len(query.atoms))``:
        for every point of ``query`` (a grid on this lattice, in its cell
        order) and every cell offset, the run of this grid's sorted points
        in the cell at that offset from the point's own (count 0 where
        that cell is empty)."""
        strides = np.array([self.dims[1] * self.dims[2], self.dims[2], 1])
        target = query.cell_key[None, :] + (offsets @ strides)[:, None]
        slot = np.minimum(
            np.searchsorted(self.cell_key, target), self.cell_key.size - 1
        )
        counts = np.where(
            self.cell_key[slot] == target, self.cell_count[slot], 0
        )
        cell_of = np.repeat(np.arange(query.cell_key.size), query.cell_count)
        return self.cell_start[slot][:, cell_of], counts[:, cell_of]


def _candidates(
    owners: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Every ``(owners[k], starts[k] + t)`` for ``t < counts[k]``, as
    ``(p, q)`` index arrays of about :data:`_CHUNK` pairs at a time."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    cuts = np.searchsorted(ends, np.arange(_CHUNK, total, _CHUNK), "right")
    lo = 0
    for hi in (*cuts.tolist(), counts.size):
        if hi == lo:
            continue
        count = counts[lo:hi]
        q = np.repeat(starts[lo:hi] - (ends[lo:hi] - count), count)
        q += np.arange(ends[lo] - count[0], ends[hi - 1])
        yield np.repeat(owners[lo:hi], count), q
        lo = hi


def _close(
    a: np.ndarray, p: np.ndarray, b: np.ndarray, q: np.ndarray, cutoff: float
) -> np.ndarray:
    """The per-pair contact test -- the one place a contact is decided.

    ``a`` and ``b`` are ``(3, n)`` float64 coordinate rows, ``p`` and ``q``
    index them pairwise.
    """
    d2 = a[0][p] - b[0][q]
    d2 *= d2
    for axis in (1, 2):  # left to right: (dx^2 + dy^2) + dz^2
        delta = a[axis][p] - b[axis][q]
        delta *= delta
        d2 += delta
    return d2 < cutoff * cutoff


def pairs_within(
    pts: np.ndarray, i: np.ndarray, j: np.ndarray, cutoff: float
) -> np.ndarray:
    """Boolean mask over the given index pairs: ``pts[i[k]]`` closer than
    ``cutoff`` to ``pts[j[k]]`` -- the same test :func:`self_pairs`
    applies, for callers that already know which pairs they care about.
    A non-finite point is within the cutoff of nothing here too."""
    xyz = np.ascontiguousarray(np.asarray(pts, dtype=np.float64).T)
    with np.errstate(invalid="ignore"):  # inf - inf: NaN, compares False
        return _close(xyz, i, xyz, j, cutoff)


def _self_hits(
    pts: np.ndarray, cutoff: float
) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """``(atoms, p, q, hit)`` per chunk of candidate pairs among the points:
    original indices ``atoms[p[k]]``, ``atoms[q[k]]`` are closer than the
    cutoff where ``hit[k]``; every unordered pair is a candidate at most
    once."""
    pts = np.asarray(pts, dtype=np.float64)
    if not cutoff > 0:
        return
    grid = _Grid(pts, cutoff)
    here = np.arange(grid.atoms.size)
    starts, counts = grid.shell(grid, _HALF_SHELL)
    own_cell_end = np.repeat(
        grid.cell_start + grid.cell_count, grid.cell_count
    )
    # Row 0 pairs a point with the rest of its own cell, rows 1..13 with
    # the whole cell at each half-shell offset.
    starts = np.concatenate((here[None, :] + 1, starts))
    counts = np.concatenate((own_cell_end[None, :] - here - 1, counts))
    for p, q in _candidates(
        np.broadcast_to(here, starts.shape).ravel(),
        starts.ravel(),
        counts.ravel(),
    ):
        yield grid.atoms, p, q, _close(grid.xyz, p, grid.xyz, q, cutoff)


def self_pairs(
    pts: np.ndarray, cutoff: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(i, j)``, ``i < j``: every unordered pair of the
    ``(N, 3)`` points closer than ``cutoff``, each exactly once.

    A cutoff that is not ``> 0`` (NaN included) reaches nothing.
    """
    none = np.zeros(0, dtype=np.intp)
    first, second = [none], [none]
    for atoms, p, q, hit in _self_hits(pts, cutoff):
        first.append(atoms[p[hit]])
        second.append(atoms[q[hit]])
    a, b = np.concatenate(first), np.concatenate(second)
    return np.minimum(a, b), np.maximum(a, b)


def count_self_pairs(pts: np.ndarray, cutoff: float) -> int:
    """``len(self_pairs(pts, cutoff)[0])`` without materialising the pairs."""
    return sum(
        np.count_nonzero(hit) for _, _, _, hit in _self_hits(pts, cutoff)
    )


def any_within(pts: np.ndarray, ref: np.ndarray, cutoff: float) -> np.ndarray:
    """Boolean mask over the ``(N, 3)`` points: closer than ``cutoff`` to
    at least one of the ``(M, 3)`` reference points."""
    pts = np.asarray(pts, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    out = np.zeros(pts.shape[0], dtype=bool)
    if not cutoff > 0:
        return out
    grid = _Grid(ref, cutoff)
    if not grid.atoms.size:
        return out
    query = _Grid(pts, cutoff, like=grid)
    starts, counts = grid.shell(query, _SHELL)
    for p, q in _candidates(
        np.broadcast_to(np.arange(query.atoms.size), starts.shape).ravel(),
        starts.ravel(),
        counts.ravel(),
    ):
        hit = _close(query.xyz, p, grid.xyz, q, cutoff)
        out[query.atoms[p[hit]]] = True
    return out

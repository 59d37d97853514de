"""Incremental (online) analysis operators for in-situ streaming ingest.

The streaming-MD and in-situ protein-folding literature argue that
observables should be computed *while* trajectory data lands, not in a
second decompress-everything pass afterwards.  This module provides
incremental forms of the batch operators in :mod:`repro.analysis` -- each
consumes one ingest-window-sized slab of frames at a time and maintains
running state, so a full analysis is available the moment the last window
is dispatched:

* :class:`OnlineRMSD`      -- per-frame RMSD vs. a fixed reference
  (superposed), incremental form of
  :func:`repro.analysis.rmsd.rmsd_trajectory`;
* :class:`OnlineContacts`  -- per-frame contact counts and
  native-contact fraction Q(t) vs. a reference frame, incremental form of
  :func:`repro.analysis.contacts.contact_count` /
  :func:`~repro.analysis.contacts.native_contact_fraction`;
* :class:`OnlineObservables` -- center of mass, gyration radius,
  end-to-end distance, and MSD vs. frame 0, incremental forms of the
  :mod:`repro.analysis.observables` functions;
* :class:`OnlineStats`     -- Welford running mean/variance plus
  *streaming* Flyvbjerg-Petersen block averages, so honest error bars are
  available without retaining the series.

Equivalence contract (verified by ``tests/analysis/test_online_equivalence.py``
over random window splits):

* RMSD, contacts, and the frame observables are **exact**: every frame's
  value is computed by the same float operations as the batch operator,
  so online-vs-batch equality is bit-for-bit at any window split.
* :class:`OnlineStats` matches the batch mean/variance and
  :func:`repro.analysis.timeseries.block_average` rows to within
  :data:`STATS_RTOL` / :data:`STATS_ATOL`: the streaming form accumulates
  hierarchically (pairwise, power-of-two blocks) while numpy's batch
  reductions use its own pairwise order, so the results differ only in
  float association, never in the estimator.

:class:`InSituAnalysis` bundles a set of operators behind the single
``consume(start, stop, coords)`` surface the ingest pipeline's analysis
stage drives.  Consumption is **idempotent over replays**: frames that
were already counted (a retried delivery after a transient fault, on the
same window boundaries or others) are ignored, a window is taken by every
operator or by none, and a gap in the stream raises -- online state can
never silently double-count or skip frames.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.contacts import native_pairs, pair_series
from repro.analysis.rmsd import rmsd
from repro.analysis.timeseries import BlockResult
from repro.errors import ConfigurationError, TopologyError

__all__ = [
    "InSituAnalysis",
    "OnlineContacts",
    "OnlineObservables",
    "OnlineRMSD",
    "OnlineStats",
    "STATS_ATOL",
    "STATS_RTOL",
]

#: Documented float tolerance of :class:`OnlineStats` vs. its batch
#: counterparts (everything else in this module is exact -- see the
#: module docstring).
STATS_RTOL = 1e-9
STATS_ATOL = 1e-12


def _as_slab(coords: np.ndarray) -> np.ndarray:
    slab = np.asarray(coords)
    if slab.ndim != 3 or slab.shape[2] != 3:
        raise TopologyError(
            f"online operators consume (nframes, natoms, 3) slabs, "
            f"got shape {slab.shape}"
        )
    return slab


def _drop_tail(nframes: int, *series: list) -> None:
    for values in series:
        del values[len(values) - nframes:]


class OnlineRMSD:
    """Per-frame RMSD against a fixed reference, one slab at a time.

    With ``reference=None`` the first frame ever consumed becomes the
    reference, matching ``rmsd_trajectory(trajectory, reference_frame=0)``
    exactly (same per-frame superposition, same float order).
    """

    def __init__(
        self, reference: Optional[np.ndarray] = None, align: bool = True
    ):
        self.align = align
        self._reference: Optional[np.ndarray] = None
        if reference is not None:
            self._reference = np.asarray(reference).astype(np.float64)
        self._values: List[float] = []

    def update(self, coords: np.ndarray) -> Dict[str, np.ndarray]:
        slab = _as_slab(coords)
        if self._reference is None and slab.shape[0] > 0:
            self._reference = slab[0].astype(np.float64)
        fresh = np.array(
            [rmsd(frame, self._reference, align=self.align) for frame in slab]
        )
        self._values.extend(fresh.tolist())
        return {"rmsd": fresh}

    def rewind(self, nframes: int) -> None:
        _drop_tail(nframes, self._values)

    def result(self) -> Dict[str, np.ndarray]:
        return {"rmsd": np.array(self._values)}


class OnlineContacts:
    """Per-frame contact counts and native-contact fraction Q(t).

    The native (reference) contacts are found once -- in ``reference``
    coordinates, or in the first frame consumed -- and shared across every
    slab, exactly as the batch
    ``native_contact_fraction(trajectory, reference_frame=0)`` shares them
    across its frame loop.  They are held as index pairs, so the state is
    O(contacts), not O(natoms^2).
    """

    def __init__(
        self,
        cutoff: float = 8.0,
        selection: Optional[np.ndarray] = None,
        reference: Optional[np.ndarray] = None,
    ):
        if cutoff <= 0:
            raise TopologyError("cutoff must be positive")
        self.cutoff = float(cutoff)
        self.selection = (
            np.asarray(selection) if selection is not None else None
        )
        self._native: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if reference is not None:
            self._set_reference(np.asarray(reference))
        self._counts: List[int] = []
        self._q: List[float] = []

    def _set_reference(self, frame: np.ndarray) -> None:
        self._native = native_pairs(
            frame, self.cutoff, selection=self.selection
        )

    def update(self, coords: np.ndarray) -> Dict[str, np.ndarray]:
        slab = _as_slab(coords)
        if slab.shape[0] == 0:
            return {
                "contacts": np.zeros(0, dtype=np.int64),
                "native_fraction": np.zeros(0),
            }
        if self._native is None:
            self._set_reference(slab[0])
        sel = slab
        if self.selection is not None:
            sel = slab[:, self.selection]
        counts, overlap = pair_series(sel, self.cutoff, native=self._native)
        q = overlap / self._native[0].size
        self._counts.extend(counts.tolist())
        self._q.extend(q.tolist())
        return {"contacts": counts, "native_fraction": q}

    def rewind(self, nframes: int) -> None:
        _drop_tail(nframes, self._counts, self._q)

    def result(self) -> Dict[str, np.ndarray]:
        return {
            "contacts": np.array(self._counts, dtype=np.int64),
            "native_fraction": np.array(self._q),
        }


class OnlineObservables:
    """Center of mass, gyration radius, end-to-end distance, MSD vs. frame 0.

    All four are per-frame maps given frame 0, so the online forms are
    exact: each slab computes the identical vectorized expressions the
    batch operators apply to the whole stack.
    """

    def __init__(self) -> None:
        self._frame0: Optional[np.ndarray] = None
        self._com: List[np.ndarray] = []
        self._gyr: List[np.ndarray] = []
        self._e2e: List[np.ndarray] = []
        self._msd: List[np.ndarray] = []

    def update(self, coords: np.ndarray) -> Dict[str, np.ndarray]:
        slab = _as_slab(coords)
        if slab.shape[1] < 2:
            raise TopologyError("end-to-end distance needs at least two atoms")
        if slab.shape[0] == 0:
            return {
                "center_of_mass": np.empty((0, 3)),
                "gyration_radius": np.empty(0),
                "end_to_end": np.empty(0),
                "msd": np.empty(0),
            }
        if self._frame0 is None:
            self._frame0 = slab[0].astype(np.float64)
        com = slab.mean(axis=1)
        pts = slab.astype(np.float64)
        centered = pts - pts.mean(axis=1, keepdims=True)
        gyr = np.sqrt((centered**2).sum(axis=2).mean(axis=1))
        e2e = np.linalg.norm(
            (slab[:, -1, :] - slab[:, 0, :]).astype(np.float64), axis=1
        )
        msd = ((pts - self._frame0) ** 2).sum(axis=2).mean(axis=1)
        self._com.append(com)
        self._gyr.append(gyr)
        self._e2e.append(e2e)
        self._msd.append(msd)
        return {
            "center_of_mass": com,
            "gyration_radius": gyr,
            "end_to_end": e2e,
            "msd": msd,
        }

    def rewind(self, nframes: int) -> None:
        if nframes:  # one part per non-empty slab
            for parts in (self._com, self._gyr, self._e2e, self._msd):
                parts.pop()

    def result(self) -> Dict[str, np.ndarray]:
        def cat(parts: List[np.ndarray], width: int = 0) -> np.ndarray:
            if not parts:
                shape = (0, 3) if width else (0,)
                return np.empty(shape)
            return np.concatenate(parts)

        return {
            "center_of_mass": cat(self._com, width=3),
            "gyration_radius": cat(self._gyr),
            "end_to_end": cat(self._e2e),
            "msd": cat(self._msd),
        }


class _Welford:
    """Numerically stable running mean / M2 (sum of squared deviations)."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def variance(self, ddof: int = 0) -> float:
        if self.count <= ddof:
            return 0.0
        return self.m2 / (self.count - ddof)


class _BlockLevel:
    """One block size (2^level) of the streaming Flyvbjerg-Petersen tree.

    ``half`` holds the completed size/2 block mean waiting for its pair;
    ``welford`` accumulates the means of this level's *completed* blocks.
    """

    __slots__ = ("size", "welford", "half")

    def __init__(self, size: int) -> None:
        self.size = size
        self.welford = _Welford()
        self.half: Optional[float] = None


class OnlineStats:
    """Welford mean/variance plus streaming block averages over a scalar
    series, without retaining the series.

    Each incoming value climbs a hierarchy of power-of-two block levels:
    a value is a completed size-1 block; two completed size-``s`` block
    means pair into one size-``2s`` mean, which climbs further.  Every
    level folds its completed block means into a Welford accumulator, so
    :meth:`result` reports the same rows
    :func:`repro.analysis.timeseries.block_average` computes from the
    retained series -- completed blocks only, ``nblocks == count //
    block_size`` exactly -- with float association as the only difference
    (see :data:`STATS_RTOL`).

    Memory is O(log n): one ``(mean, m2, half)`` triple per block level.
    """

    def __init__(self, min_blocks: int = 4):
        if min_blocks < 2:
            raise ConfigurationError(
                f"min_blocks must be >= 2, got {min_blocks}"
            )
        self.min_blocks = int(min_blocks)
        self._levels: List[_BlockLevel] = [_BlockLevel(1)]

    @property
    def count(self) -> int:
        return self._levels[0].welford.count

    @property
    def mean(self) -> float:
        return self._levels[0].welford.mean

    def variance(self, ddof: int = 0) -> float:
        return self._levels[0].welford.variance(ddof)

    def add(self, values: Iterable[float]) -> None:
        """Fold a slab of scalar values into the running state."""
        for value in np.asarray(values, dtype=np.float64).ravel():
            self._add_one(float(value))

    def _add_one(self, value: float) -> None:
        carried: Optional[float] = value
        idx = 0
        while carried is not None:
            if idx == len(self._levels):
                self._levels.append(_BlockLevel(1 << idx))
            level = self._levels[idx]
            level.welford.add(carried)
            if level.half is None:
                level.half = carried
                carried = None
            else:
                carried = (level.half + carried) / 2.0
                level.half = None
            idx += 1

    def blocks(self) -> List[BlockResult]:
        """The completed block-averaging rows (sizes 1, 2, 4, ...)."""
        rows: List[BlockResult] = []
        for level in self._levels:
            w = level.welford
            if w.count < self.min_blocks:
                break
            rows.append(
                BlockResult(
                    block_size=level.size,
                    nblocks=w.count,
                    mean=w.mean,
                    stderr=math.sqrt(w.variance(ddof=1) / w.count),
                )
            )
        return rows

    def result(self) -> Dict[str, object]:
        """Snapshot: moments plus block rows and the honest error bar."""
        rows = self.blocks()
        return {
            "count": self.count,
            "mean": self.mean,
            "variance": self.variance(ddof=0),
            "sample_variance": self.variance(ddof=1),
            "blocks": rows,
            # The last (largest-block) row's stderr is the honest error
            # bar once blocks exceed the correlation time.
            "stderr": rows[-1].stderr if rows else 0.0,
        }


class InSituAnalysis:
    """The operator set the fused ingest analysis stage drives.

    One instance rides one (or several, appended) ingest streams: the
    pipeline's analysis stage calls :meth:`consume` with each window's
    decoded coordinates before the window's buffers are released, and the
    finished results come back on the ingest receipt (and through
    :meth:`results` at any time).

    ``operators`` maps names to online operators (``update(coords) ->
    {series: values}`` / ``rewind(nframes)``, which undoes the last
    ``update`` of that many frames / ``result()``); by default the
    standard set:
    :class:`OnlineRMSD`, :class:`OnlineContacts` (skipped automatically
    if the reference frame has no contacts at the cutoff), and
    :class:`OnlineObservables`.  ``stats_over`` names scalar series to
    track with :class:`OnlineStats` (error bars without series
    retention).

    Replay safety: windows must arrive in stream order.  Frames that were
    already consumed -- a retried delivery after a transient mid-ingest
    fault, whole or overlapping -- are ignored (never double-counted) and
    the unseen rest of the window is consumed; a gap raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(
        self,
        operators: Optional[Dict[str, object]] = None,
        stats_over: Sequence[str] = ("rmsd", "gyration_radius"),
        min_blocks: int = 4,
    ):
        self._default_contacts = operators is None
        if operators is None:
            operators = {
                "rmsd": OnlineRMSD(),
                "contacts": OnlineContacts(),
                "observables": OnlineObservables(),
            }
        self.operators: Dict[str, object] = dict(operators)
        self.stats_over: Tuple[str, ...] = tuple(stats_over)
        self.stats: Dict[str, OnlineStats] = {
            name: OnlineStats(min_blocks=min_blocks) for name in self.stats_over
        }
        self.frames_seen = 0
        self.windows_seen = 0
        self.replays_ignored = 0
        self._next_start = 0

    def consume(self, start: int, stop: int, coords: np.ndarray) -> int:
        """Fold one window's decoded frames ``[start, stop)`` in.

        Returns the number of *new* frames consumed: 0 for a replayed
        window, the unseen tail for a window that overlaps what was
        already consumed (a retry re-split on different boundaries).
        All-or-nothing: if an operator raises, the operators that already
        took the window are rewound, so delivering it again counts it once.
        """
        if stop < start:
            raise ConfigurationError(f"bad window [{start}, {stop})")
        if start > self._next_start:
            raise ConfigurationError(
                f"window gap: expected frame {self._next_start}, "
                f"got [{start}, {stop})"
            )
        # Replayed delivery (e.g. a retried window after a transient
        # fault): every frame before _next_start is already in the running
        # state.  Ignore those rather than double-count.
        replayed = max(0, self._next_start - start)
        if replayed and stop <= self._next_start:
            self.replays_ignored += 1
            return 0
        slab = _as_slab(coords)
        if slab.shape[0] != stop - start:
            raise ConfigurationError(
                f"window [{start}, {stop}) carries {slab.shape[0]} frames"
            )
        slab = slab[replayed:]
        fresh = slab.shape[0]
        series: Dict[str, np.ndarray] = {}
        advanced: List[object] = []
        contact_free: List[str] = []
        try:
            for name, op in self.operators.items():
                try:
                    series.update(op.update(slab))
                    advanced.append(op)
                except TopologyError:
                    if self._default_contacts and isinstance(
                        op, OnlineContacts
                    ):
                        # Default bundle on a contact-free reference: drop
                        # the operator rather than fail the whole ingest.
                        contact_free.append(name)
                        continue
                    raise
        except BaseException:
            for op in advanced:
                op.rewind(fresh)
            raise
        for name in contact_free:
            del self.operators[name]
        for name in self.stats_over:
            if name in series:
                self.stats[name].add(series[name])
        if replayed:
            self.replays_ignored += 1
        self._next_start = stop
        self.frames_seen += fresh
        self.windows_seen += 1
        return fresh

    def results(self) -> Dict[str, object]:
        """Flattened snapshot of every operator's running result."""
        out: Dict[str, object] = {
            "frames": self.frames_seen,
            "windows": self.windows_seen,
            "replays_ignored": self.replays_ignored,
        }
        for op in self.operators.values():
            out.update(op.result())
        if self.stats:
            out["stats"] = {
                name: stats.result() for name, stats in self.stats.items()
            }
        return out

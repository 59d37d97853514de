"""Trajectory load paths with per-phase CPU timing.

The three paths of the paper's evaluation, executed for real:

* ``C`` -- load a compressed XTC: inflate everything, then filter the
  selection (decompression cannot be skipped; paper §1 issue (1));
* ``D`` -- load a raw (uncompressed) container: scan + filter only;
* ``ADA`` -- load a pre-filtered subset container: straight into frames.

:class:`PhaseTimer` measures real ``perf_counter`` seconds per phase; the
Fig. 8 CPU-burst profile is its output.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.decompressor import Decompressor
from repro.formats.trajectory import Trajectory

__all__ = ["PhaseTimer", "LoadResult", "TrajectoryLoader"]


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}

    @contextmanager
    def phase(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + (
                time.perf_counter() - start
            )

    def total(self) -> float:
        return sum(self.seconds.values())

    def fraction(self, name: str) -> float:
        total = self.total()
        return self.seconds.get(name, 0.0) / total if total else 0.0


@dataclass
class LoadResult:
    """A loaded frame array plus the accounting the paper reports."""

    trajectory: Trajectory
    source_nbytes: int  # bytes read from storage
    decompressed_nbytes: int  # bytes materialized by inflation (0 for raw)
    timer: PhaseTimer = field(default_factory=PhaseTimer)
    #: Which precision tier served the bytes ("full"/"lod") and, for the
    #: coarse tier, the advertised per-coordinate error bound.
    tier: str = "full"
    max_error: Optional[float] = None

    @property
    def loaded_nbytes(self) -> int:
        """Bytes held by the final frame array."""
        return self.trajectory.nbytes

    @property
    def peak_memory_nbytes(self) -> int:
        """First-order peak: source buffer + inflated raw + frame array.

        For a C load all three coexist at the filter step; for D loads the
        inflated term is zero; for ADA subset loads source == frames.
        """
        return self.source_nbytes + self.decompressed_nbytes + self.loaded_nbytes


class TrajectoryLoader:
    """Executes the three load paths on in-memory blobs."""

    def __init__(self) -> None:
        self.decompressor = Decompressor()

    def load(self, blob: bytes, selection: Optional[np.ndarray] = None) -> LoadResult:
        """Decode ``blob`` into frames, then filter ``selection`` if given.

        The blob picks the path: an XTC stream pays inflation (the ``C``
        path, or an ADA subset stored with ``subset_format='xtc'`` -- the
        design-choice ablation), a raw container only the parse (``D``,
        or an ADA subset, which already *is* the selection).
        """
        timer = PhaseTimer()
        compressed = self.decompressor.is_compressed(blob)
        with timer.phase("decompress" if compressed else "parse"):
            full = self.decompressor.decompress(blob)
        traj = full
        if selection is not None:
            with timer.phase("filter"):
                traj = full.select_atoms(selection)
        return LoadResult(
            trajectory=traj,
            source_nbytes=len(blob),
            decompressed_nbytes=full.nbytes if compressed else 0,
            timer=timer,
        )

    #: The ADA path's traced name (``benchmarks/e2e`` calls and patches it).
    load_subset = load

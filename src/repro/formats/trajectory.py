"""In-memory trajectory containers.

A :class:`Trajectory` stores frames as one stacked ``(nframes, natoms, 3)``
float32 array -- the same dense layout VMD builds after decompressing an
``.xtc`` file ("an array of frames", paper §2.1).  Keeping one contiguous
array rather than per-frame objects makes the filtering path (`select
protein atoms across all frames`) a single fancy-indexing operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import TopologyError

__all__ = ["Frame", "Trajectory", "BYTES_PER_COORD"]

#: float32 x/y/z per atom.
BYTES_PER_COORD = 12


@dataclass
class Frame:
    """A single simulation snapshot."""

    coords: np.ndarray  # (natoms, 3) float32, Angstroms
    step: int = 0
    time_ps: float = 0.0
    box: Optional[np.ndarray] = None  # (3, 3) float32 or None

    def __post_init__(self) -> None:
        self.coords = np.asarray(self.coords, dtype=np.float32)
        if self.coords.ndim != 2 or self.coords.shape[1] != 3:
            raise TopologyError(f"frame coords shape {self.coords.shape} invalid")
        if self.box is not None:
            self.box = np.asarray(self.box, dtype=np.float32).reshape(3, 3)

    @property
    def natoms(self) -> int:
        return int(self.coords.shape[0])

    @property
    def nbytes(self) -> int:
        """Raw (uncompressed) payload size of this frame."""
        return self.natoms * BYTES_PER_COORD

    def select(self, indices: np.ndarray) -> "Frame":
        """Atom subset of this frame (copy)."""
        return Frame(
            coords=self.coords[np.asarray(indices)],
            step=self.step,
            time_ps=self.time_ps,
            box=self.box,
        )


class Trajectory:
    """A stack of frames over a fixed atom set."""

    def __init__(
        self,
        coords: np.ndarray,
        steps: Optional[Sequence[int]] = None,
        times_ps: Optional[Sequence[float]] = None,
        box: Optional[np.ndarray] = None,
    ):
        self.coords = np.ascontiguousarray(coords, dtype=np.float32)
        if self.coords.ndim != 3 or self.coords.shape[2] != 3:
            raise TopologyError(
                f"trajectory coords shape {self.coords.shape}; want (F, N, 3)"
            )
        nframes = self.coords.shape[0]
        self.steps = (
            np.asarray(steps, dtype=np.int64)
            if steps is not None
            else np.arange(nframes, dtype=np.int64)
        )
        self.times_ps = (
            np.asarray(times_ps, dtype=np.float64)
            if times_ps is not None
            else self.steps.astype(np.float64)
        )
        if self.steps.shape[0] != nframes or self.times_ps.shape[0] != nframes:
            raise TopologyError("steps/times length mismatch with frame count")
        self.box = (
            np.asarray(box, dtype=np.float32).reshape(3, 3) if box is not None else None
        )

    # -- construction ----------------------------------------------------------

    @classmethod
    def concatenate(cls, parts: Iterable["Trajectory"]) -> "Trajectory":
        """Append trajectories frame-wise (same atom set)."""
        parts = list(parts)
        if not parts:
            raise TopologyError("cannot concatenate zero trajectories")
        natoms = parts[0].natoms
        if any(p.natoms != natoms for p in parts):
            raise TopologyError("atom-count mismatch in concatenate")
        return cls(
            coords=np.concatenate([p.coords for p in parts], axis=0),
            steps=np.concatenate([p.steps for p in parts]),
            times_ps=np.concatenate([p.times_ps for p in parts]),
            box=parts[0].box,
        )

    # -- queries ---------------------------------------------------------------

    @property
    def nframes(self) -> int:
        return int(self.coords.shape[0])

    @property
    def natoms(self) -> int:
        return int(self.coords.shape[1])

    @property
    def nbytes(self) -> int:
        """Raw payload bytes: frames x atoms x 12."""
        return self.nframes * self.natoms * BYTES_PER_COORD

    def __len__(self) -> int:
        return self.nframes

    def __iter__(self) -> Iterator[Frame]:
        for i in range(self.nframes):
            yield self.frame(i)

    def __repr__(self) -> str:
        return f"Trajectory(nframes={self.nframes}, natoms={self.natoms})"

    def frame(self, i: int) -> Frame:
        """Frame ``i`` as a view-backed :class:`Frame`."""
        return Frame(
            coords=self.coords[i],
            step=int(self.steps[i]),
            time_ps=float(self.times_ps[i]),
            box=self.box,
        )

    def select_atoms(self, indices: np.ndarray) -> "Trajectory":
        """Atom subset across every frame -- the core filtering primitive.

        One vectorized ``take`` (of indices or a boolean mask): what a compute
        node does when it scans decompressed raw data for active atoms.
        """
        indices = np.asarray(indices)
        if indices.dtype == bool:  # a mask, not the indices 0 and 1
            indices = np.arange(self.natoms)[indices]
        return Trajectory(
            coords=self.coords.take(indices, axis=1),
            steps=self.steps,
            times_ps=self.times_ps,
            box=self.box,
        )

    def slice_frames(self, start: int, stop: int) -> "Trajectory":
        """Frame range ``[start, stop)`` (view-backed)."""
        return Trajectory(
            coords=self.coords[start:stop],
            steps=self.steps[start:stop],
            times_ps=self.times_ps[start:stop],
            box=self.box,
        )

    def allclose(self, other: "Trajectory", atol: float = 0.0) -> bool:
        """Coordinate equality within ``atol`` (for codec round-trip checks)."""
        return (
            self.coords.shape == other.coords.shape
            and bool(np.allclose(self.coords, other.coords, atol=atol, rtol=0.0))
            and bool(np.array_equal(self.steps, other.steps))
        )

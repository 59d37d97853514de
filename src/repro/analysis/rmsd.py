"""RMSD / RMSF: the workhorse observables of protein trajectory studies."""

from __future__ import annotations

import numpy as np

from repro.analysis.align import _superpose_stack, _validate_pair, superpose
from repro.errors import TopologyError
from repro.formats.trajectory import Trajectory

__all__ = ["rmsd", "rmsd_trajectory", "rmsf", "pairwise_rmsd"]


def rmsd(a: np.ndarray, b: np.ndarray, align: bool = True) -> float:
    """RMSD between two conformations (optionally after superposition)."""
    if align:
        _, value = superpose(a, b)
        return value
    if a.shape != b.shape:
        raise TopologyError(f"shape mismatch {a.shape} vs {b.shape}")
    delta = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt((delta**2).sum(axis=1).mean()))


def _rmsd_stack(
    stack: np.ndarray, reference: np.ndarray, align: bool
) -> np.ndarray:
    """:func:`rmsd` of each ``(F, N, 3)`` frame against one float64
    ``reference``, frame by frame the same float operations."""
    if not stack.shape[0]:
        return np.zeros(0)
    _validate_pair(stack[0], reference)
    if align:
        return _superpose_stack(stack, reference)[2]
    delta = np.asarray(stack, dtype=np.float64) - reference
    return np.sqrt((delta**2).sum(axis=2).mean(axis=1))


def rmsd_trajectory(
    trajectory: Trajectory, reference_frame: int = 0, align: bool = True
) -> np.ndarray:
    """Per-frame RMSD against one reference frame."""
    if not 0 <= reference_frame < trajectory.nframes:
        raise TopologyError(f"reference frame {reference_frame} out of range")
    coords = trajectory.coords
    reference = coords[reference_frame].astype(np.float64)
    # 64-frame blocks bound the float64 temporaries; no value depends on it.
    return np.concatenate([
        _rmsd_stack(coords[start:start + 64], reference, align)
        for start in range(0, trajectory.nframes, 64)
    ])


def rmsf(trajectory: Trajectory) -> np.ndarray:
    """Per-atom root-mean-square fluctuation around the mean structure.

    Fully vectorized: one mean over frames, one reduction.
    """
    coords = trajectory.coords.astype(np.float64)
    mean = coords.mean(axis=0, keepdims=True)
    return np.sqrt(((coords - mean) ** 2).sum(axis=2).mean(axis=0))


def pairwise_rmsd(trajectory: Trajectory, align: bool = False) -> np.ndarray:
    """Frame-by-frame RMSD matrix (the clustering input of MD studies)."""
    coords = trajectory.coords.astype(np.float64)
    out = np.zeros((trajectory.nframes,) * 2)
    for j in range(1, trajectory.nframes):  # frames i < j against frame j
        out[:j, j] = out[j, :j] = _rmsd_stack(coords[:j], coords[j], align)
    return out

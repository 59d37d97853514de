"""Structure superposition (Kabsch algorithm).

RMSD over a trajectory is only meaningful after removing rigid-body
motion; the Kabsch algorithm finds the optimal rotation in one SVD.  One
stacked kernel (``matmul``, ``svd``, ``det`` over an ``(F, N, 3)`` stack)
runs it, each frame by the same float operations whatever the stack, and
:func:`kabsch_rotation` and :func:`superpose` are its one-frame case.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import TopologyError

__all__ = ["kabsch_rotation", "superpose"]


def _validate_pair(mobile: np.ndarray, reference: np.ndarray) -> None:
    if mobile.shape != reference.shape or mobile.ndim != 2 or mobile.shape[1] != 3:
        raise TopologyError(
            f"superposition needs matching (N, 3) arrays, got "
            f"{mobile.shape} vs {reference.shape}"
        )


def _superpose_stack(
    mobile: np.ndarray, reference: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rotations, aligned, rmsd)`` of each frame of the ``(F, N, 3)``
    ``mobile`` superposed onto one ``(N, 3)`` reference: mobile centred in
    its own dtype, ``u, vt = svd(mᵀr)``, ``R = u·diag(1, 1, d)·vt`` with
    ``d = sign(det(u·vt))`` (a proper rotation), ``m·R + r̄``, then
    ``sqrt(mean(sum(δ²)))``."""
    centered = mobile - mobile.mean(axis=1, keepdims=True)
    ref_mean = reference.mean(axis=0)
    h = centered.transpose(0, 2, 1) @ (reference - ref_mean)
    u, _s, vt = np.linalg.svd(h)
    correction = np.zeros(h.shape)
    correction[:, 0, 0] = correction[:, 1, 1] = 1.0
    correction[:, 2, 2] = np.sign(np.linalg.det(u @ vt))
    rotations = u @ correction @ vt
    aligned = centered @ rotations + ref_mean
    delta = aligned - reference
    return rotations, aligned, np.sqrt((delta**2).sum(axis=2).mean(axis=1))


def kabsch_rotation(mobile: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Optimal rotation matrix aligning centered ``mobile`` onto centered
    ``reference`` (proper rotation: reflections are corrected)."""
    _validate_pair(mobile, reference)
    return _superpose_stack(mobile[None], reference)[0][0]


def superpose(
    mobile: np.ndarray, reference: np.ndarray
) -> Tuple[np.ndarray, float]:
    """Align ``mobile`` onto ``reference``; returns ``(aligned, rmsd)``."""
    _validate_pair(mobile, reference)
    _, aligned, value = _superpose_stack(mobile[None], reference)
    return aligned[0], float(value[0])

"""Tests for superposition and RMSD/RMSF."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    OnlineRMSD,
    kabsch_rotation,
    pairwise_rmsd,
    rmsd,
    rmsd_trajectory,
    rmsf,
    superpose,
)
from repro.errors import TopologyError
from repro.formats import Trajectory


def _conf(n=30, seed=0):
    return np.random.default_rng(seed).normal(size=(n, 3)) * 5.0


def _rotation_matrix(axis_seed=1, angle=0.7):
    rng = np.random.default_rng(axis_seed)
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    k = np.array(
        [[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]]
    )
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_rmsd_identity_is_zero():
    a = _conf()
    assert rmsd(a, a) == pytest.approx(0.0, abs=1e-9)


def test_rmsd_unaligned_shape_mismatch():
    with pytest.raises(TopologyError):
        rmsd(_conf(10), _conf(11), align=False)


def test_superpose_recovers_rigid_motion():
    """A rotated+translated copy superposes back to ~zero RMSD."""
    a = _conf()
    moved = a @ _rotation_matrix().T + np.array([10.0, -3.0, 7.0])
    aligned, value = superpose(moved, a)
    assert value == pytest.approx(0.0, abs=1e-8)
    np.testing.assert_allclose(aligned, a, atol=1e-8)


def test_kabsch_returns_proper_rotation():
    r = kabsch_rotation(_conf(seed=1), _conf(seed=2))
    np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-10)
    assert np.linalg.det(r) == pytest.approx(1.0)


def test_aligned_rmsd_below_unaligned():
    a = _conf()
    moved = a @ _rotation_matrix().T + 5.0
    assert rmsd(moved, a, align=True) < rmsd(moved, a, align=False)


def test_rmsd_trajectory_zero_at_reference():
    traj = Trajectory(
        coords=np.stack([_conf(seed=i) for i in range(4)]).astype(np.float32)
    )
    series = rmsd_trajectory(traj, reference_frame=2)
    assert series[2] == pytest.approx(0.0, abs=1e-5)
    assert series.shape == (4,)
    with pytest.raises(TopologyError):
        rmsd_trajectory(traj, reference_frame=9)


def test_rmsf_flags_mobile_atoms():
    rng = np.random.default_rng(3)
    base = _conf(20)
    frames = np.stack([base for _ in range(50)]).astype(np.float32)
    frames[:, 0, :] += rng.normal(scale=3.0, size=(50, 3)).astype(np.float32)
    values = rmsf(Trajectory(coords=frames))
    assert values[0] > 5 * values[1:].max()


def test_pairwise_rmsd_symmetric_zero_diagonal():
    traj = Trajectory(
        coords=np.stack([_conf(seed=i) for i in range(5)]).astype(np.float32)
    )
    m = pairwise_rmsd(traj)
    np.testing.assert_allclose(m, m.T, atol=1e-9)
    np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-9)


def test_pairwise_rmsd_aligned_leq_unaligned():
    traj = Trajectory(
        coords=np.stack([_conf(seed=i) for i in range(4)]).astype(np.float32)
    )
    assert np.all(pairwise_rmsd(traj, align=True) <= pairwise_rmsd(traj) + 1e-9)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500), angle=st.floats(0.0, 3.1))
def test_property_superposition_invariant_to_rigid_motion(seed, angle):
    a = _conf(seed=seed)
    moved = a @ _rotation_matrix(seed + 1, angle).T + seed % 7
    _, value = superpose(moved, a)
    assert value == pytest.approx(0.0, abs=1e-6)


# -- the stacked Kabsch kernel against the per-frame chain --------------------


def _per_frame_kabsch(mobile, reference):
    """``(rmsd, d)``: the per-frame superposition as written before the
    stacked kernel -- mobile centred in its own dtype, ``mᵀr``, SVD,
    ``sign(det(u·vt))``, ``u·diag(1, 1, d)·vt``, ``m·R + r̄``,
    ``sqrt(mean(sum(δ²)))`` -- the float operations every stacked frame
    must reproduce bit for bit."""
    m = mobile - mobile.mean(axis=0)
    r = reference - reference.mean(axis=0)
    u, _s, vt = np.linalg.svd(m.T @ r)
    d = np.sign(np.linalg.det(u @ vt))
    rotation = u @ np.diag([1.0, 1.0, d]) @ vt
    centered = mobile - mobile.mean(axis=0)
    delta = centered @ rotation + reference.mean(axis=0) - reference
    return float(np.sqrt((delta**2).sum(axis=1).mean())), d


def _slab(nframes, dtype, natoms=300):
    """A reference and ``nframes`` noisy rigid copies of it; the last
    frame is a mirror image, whose fit needs the reflection fix."""
    rng = np.random.default_rng(nframes)
    reference = rng.normal(size=(natoms, 3)) * 10.0
    frames = [
        reference @ _rotation_matrix(f, 0.1 * f).T + f
        + rng.normal(scale=0.5, size=(natoms, 3))
        for f in range(nframes)
    ]
    if frames:
        frames[-1] = frames[-1] * np.array([-1.0, 1.0, 1.0])
    slab = np.array(frames, dtype=dtype).reshape(nframes, natoms, 3)
    return slab, reference.astype(dtype).astype(np.float64)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("nframes", [0, 1, 4, 37, 64, 65])
def test_stacked_rmsd_is_the_per_frame_rmsd_bit_for_bit(nframes, dtype):
    slab, reference = _slab(nframes, dtype)
    frozen = [_per_frame_kabsch(frame, reference) for frame in slab]
    want = np.array([value for value, _ in frozen])
    if nframes:
        assert frozen[-1][1] == -1.0  # the mirror frame is reflection-fixed
    online = OnlineRMSD(reference=reference).update(slab)["rmsd"]
    assert online.shape == (nframes,) and np.array_equal(online, want)
    assert [rmsd(frame, reference) for frame in slab] == want.tolist()
    if dtype is np.float32:  # a Trajectory stores float32
        traj = Trajectory(coords=np.concatenate([reference[None], slab]))
        batch = rmsd_trajectory(traj)  # blocks of 64 frames
        assert np.array_equal(batch[1:], want)


@pytest.mark.parametrize("align", [True, False])
def test_pairwise_rmsd_is_the_per_pair_rmsd_bit_for_bit(align):
    slab, _ = _slab(6, np.float32)
    coords = slab.astype(np.float64)
    got = pairwise_rmsd(Trajectory(coords=slab), align=align)
    for i in range(6):
        for j in range(i + 1, 6):
            if align:
                want = _per_frame_kabsch(coords[i], coords[j])[0]
            else:
                delta = coords[i] - coords[j]
                want = float(np.sqrt((delta**2).sum(axis=1).mean()))
            assert got[i, j] == got[j, i] == want

"""Regression tests: ``InSituAnalysis.consume`` under awkward deliveries.

A retried delivery need not arrive on the boundaries of the first
attempt, the first window of a stream can be empty, and an operator can
fail halfway through a window.  None of these may lose or double-count a
frame: the finished results must equal the batch operators bit for bit.
"""

import numpy as np
import pytest

from repro.analysis import (
    InSituAnalysis,
    OnlineContacts,
    OnlineObservables,
    OnlineRMSD,
    contact_count,
    gyration_radius,
    mean_square_displacement,
    native_contact_fraction,
    rmsd_trajectory,
)
from repro.formats.trajectory import Trajectory

pytestmark = pytest.mark.analysis


def _trajectory(nframes=40, natoms=30, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-8.0, 8.0, size=(natoms, 3)).astype(np.float32)
    drift = rng.standard_normal((nframes, natoms, 3)).astype(np.float32)
    return Trajectory(coords=base[None] + drift.cumsum(axis=0) * 0.05)


def _assert_equals_batch(hook, traj):
    res = hook.results()
    assert res["frames"] == traj.nframes
    assert np.array_equal(res["rmsd"], rmsd_trajectory(traj))
    assert np.array_equal(res["contacts"], contact_count(traj))
    assert np.array_equal(
        res["native_fraction"], native_contact_fraction(traj)
    )
    assert np.array_equal(res["gyration_radius"], gyration_radius(traj))
    assert res["msd"].dtype == np.float64
    assert np.array_equal(res["msd"], mean_square_displacement(traj))
    assert res["stats"]["rmsd"]["count"] == traj.nframes


def test_partial_overlap_replay_consumes_the_unseen_tail():
    traj = _trajectory(nframes=8)
    hook = InSituAnalysis()
    assert hook.consume(0, 4, traj.coords[0:4]) == 4
    # The retry was re-split: frames 2-3 are replayed, 4-7 are new.
    assert hook.consume(2, 8, traj.coords[2:8]) == 4
    assert hook.results()["replays_ignored"] == 1
    assert hook.results()["windows"] == 2
    _assert_equals_batch(hook, traj)


@pytest.mark.parametrize("seed", range(6))
def test_resplit_retried_windows_equal_batch(seed):
    """Every delivery is followed by a 'retry' that starts somewhere in
    what was already consumed and ends somewhere past it."""
    traj = _trajectory(seed=seed)
    rng = np.random.default_rng(seed + 50)
    hook = InSituAnalysis()
    seen = 0
    while seen < traj.nframes:
        stop = min(traj.nframes, seen + int(rng.integers(1, 7)))
        assert hook.consume(seen, stop, traj.coords[seen:stop]) == stop - seen
        back = int(rng.integers(0, stop + 1))
        ahead = min(traj.nframes, stop + int(rng.integers(0, 5)))
        fresh = hook.consume(back, ahead, traj.coords[back:ahead])
        assert fresh == ahead - stop
        seen = ahead
    _assert_equals_batch(hook, traj)


def test_zero_frame_first_window_returns_empty_series():
    traj = _trajectory(nframes=6)
    empty = traj.coords[0:0]
    for op in (OnlineContacts(), OnlineRMSD(), OnlineObservables()):
        assert all(len(series) == 0 for series in op.update(empty).values())
    hook = InSituAnalysis()
    assert hook.consume(0, 0, empty) == 0
    assert hook.results()["frames"] == 0
    assert hook.results()["contacts"].shape == (0,)
    assert hook.consume(0, 6, traj.coords) == 6
    _assert_equals_batch(hook, traj)


class _FailsOnce:
    """An operator whose second ``update`` raises, once."""

    def __init__(self):
        self.calls = 0
        self.frames = 0

    def update(self, coords):
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("transient operator failure")
        self.frames += len(coords)
        return {}

    def rewind(self, nframes):
        self.frames -= nframes

    def result(self):
        return {"flaky_frames": self.frames}


@pytest.mark.parametrize("position", ["first", "last"])
def test_consume_is_all_or_nothing_when_an_operator_raises(position):
    traj = _trajectory(nframes=12)
    standard = {
        "rmsd": OnlineRMSD(),
        "contacts": OnlineContacts(),
        "observables": OnlineObservables(),
    }
    flaky = {"flaky": _FailsOnce()}
    operators = (
        {**flaky, **standard} if position == "first" else {**standard, **flaky}
    )
    hook = InSituAnalysis(operators=operators)
    hook.consume(0, 4, traj.coords[0:4])
    with pytest.raises(RuntimeError, match="transient"):
        hook.consume(4, 8, traj.coords[4:8])
    # Nothing of the failed window stuck ...
    assert hook.results()["frames"] == 4
    assert hook.results()["windows"] == 1
    assert len(hook.results()["rmsd"]) == len(hook.results()["contacts"]) == 4
    assert len(hook.results()["msd"]) == 4
    # ... so the retried delivery counts it exactly once.
    assert hook.consume(4, 8, traj.coords[4:8]) == 4
    assert hook.consume(8, 12, traj.coords[8:12]) == 4
    assert hook.results()["flaky_frames"] == 12
    _assert_equals_batch(hook, traj)

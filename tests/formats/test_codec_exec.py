"""Pool lifecycle, partitioning, and shared-memory hygiene for codecexec.

The codec's parallel contract lives here: the dispatcher's contiguous
weighted partition is balanced and lossless, pools close idempotently
and propagate worker failures as typed
:class:`CodecError`\\ s, a crashed worker triggers exactly one respawn +
retry, and no shared-memory segment ever outlives a call -- including
the failure paths.
"""

import glob
import os

import numpy as np
import pytest

from repro.errors import CodecError
from repro.formats import Trajectory, decode_xtc, encode_xtc
from repro.formats.codecexec import (
    CodecPool,
    close_shared_pools,
    partition_weighted,
    shared_pool,
)
from repro.obs.metrics import MetricsRegistry


def _traj(nframes=24, natoms=80, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-30, 30, size=(natoms, 3))
    walk = rng.normal(scale=0.25, size=(nframes, natoms, 3)).cumsum(axis=0)
    return Trajectory(coords=(base + walk).astype(np.float32))


def _shm_names():
    return glob.glob("/dev/shm/repro-codec-*") if os.path.isdir("/dev/shm") else []


# -- module-level worker payloads (must be picklable) -------------------------


def _double(x):
    return 2 * x


def _boom(x):
    raise ValueError(f"boom {x}")


def _typed_boom(x):
    raise CodecError(f"typed boom {x}")


def _die(x):
    os._exit(13)  # simulate a segfaulting worker


# -- weighted contiguous partition --------------------------------------------


def test_partition_weighted_covers_contiguously():
    rng = np.random.default_rng(1)
    for n in (1, 2, 5, 16, 33):
        for parts in (1, 2, 4, 8, 40):
            weights = rng.integers(1, 1000, size=n).tolist()
            chunks = partition_weighted(weights, parts)
            assert chunks[0][0] == 0
            assert chunks[-1][1] == n
            for (_, a_end), (b_start, _) in zip(chunks, chunks[1:]):
                assert a_end == b_start  # contiguous, no gaps or overlap
            assert all(lo < hi for lo, hi in chunks)
            assert len(chunks) <= min(parts, n)


def test_partition_weighted_balances_skewed_weights():
    # One giant item must not drag neighbours into its chunk.
    weights = [1, 1, 1, 1000, 1, 1, 1, 1]
    chunks = partition_weighted(weights, 4)
    sums = [sum(weights[lo:hi]) for lo, hi in chunks]
    assert max(sums) == 1000


def test_partition_weighted_zero_total_falls_back_to_equal():
    chunks = partition_weighted([0, 0, 0, 0], 2)
    assert chunks[0][0] == 0 and chunks[-1][1] == 4


# -- pool lifecycle -----------------------------------------------------------


def test_pool_runs_ordered_and_close_is_idempotent():
    pool = CodecPool(3)
    assert pool.run(_double, [(i,) for i in range(7)]) == [
        2 * i for i in range(7)
    ]
    pool.close()
    pool.close()  # idempotent
    assert pool.closed
    # Documented contract: a closed pool respawns transparently on use.
    assert pool.run(_double, [(1,)]) == [2]
    assert not pool.closed
    pool.close()


def test_pool_propagates_worker_errors_typed():
    with CodecPool(2) as pool:
        with pytest.raises(CodecError, match="boom"):
            pool.run(_typed_boom, [(1,), (2,)])
        with pytest.raises(Exception, match="boom"):
            pool.run(_boom, [(1,)])
        # The pool survives task failures and keeps serving.
        assert pool.run(_double, [(21,)]) == [42]


def test_pool_restarts_after_worker_crash():
    metrics = MetricsRegistry()
    with CodecPool(2, metrics=metrics) as pool:
        with pytest.raises(CodecError, match="worker process died"):
            pool.run(_die, [(1,), (2,)])
        # One respawn was attempted; the fresh pool still works.
        assert metrics.counter("codec_pool_restarts_total").value >= 1
        assert pool.run(_double, [(5,)]) == [10]


def test_shared_pools_are_cached_and_closeable():
    close_shared_pools()
    a = shared_pool(2)
    b = shared_pool(2)
    assert a is b
    c = shared_pool(4)  # growing recreates the pool
    assert c is not a and c.workers == 4
    assert shared_pool(2) is c  # larger pool serves smaller asks
    close_shared_pools()
    assert a.closed and c.closed
    # The slot was cleared: the next request gets a distinct pool.
    d = shared_pool(2)
    assert d is not a and d is not c
    assert d.run(_double, [(4,)]) == [8]
    close_shared_pools()


# -- shared-memory hygiene ----------------------------------------------------


def test_decode_result_is_zero_copy_and_releases_segment():
    metrics = MetricsRegistry()
    t = _traj(nframes=24)
    blob = encode_xtc(t, keyframe_interval=6)
    before = set(_shm_names())
    with CodecPool(4, metrics=metrics) as pool:
        out = decode_xtc(blob, workers=4, executor=pool)
        np.testing.assert_array_equal(out.coords, decode_xtc(blob).coords)
        # Zero-copy: the coords view over the (unlinked) segment holds the
        # only mapping; the gauge tracks it until the array dies.
        assert metrics.gauge("codec_shm_active").value == 1
        del out
        assert metrics.gauge("codec_shm_active").value == 0
    assert metrics.counter("codec_shm_segments_total").value >= 1
    assert set(_shm_names()) == before


def test_segment_unlinked_even_when_worker_fails():
    metrics = MetricsRegistry()
    t = _traj(nframes=18, natoms=60)
    blob = bytearray(encode_xtc(t, keyframe_interval=3))
    # Corrupt a payload byte in the middle so one worker's decode raises.
    blob[len(blob) // 2] ^= 0xFF
    before = set(_shm_names())
    with CodecPool(3, metrics=metrics) as pool:
        with pytest.raises(CodecError):
            decode_xtc(bytes(blob), workers=3, executor=pool)
    assert metrics.gauge("codec_shm_active").value == 0
    assert set(_shm_names()) == before


def test_encode_segment_released_on_success_and_failure():
    metrics = MetricsRegistry()
    t = _traj(nframes=16, natoms=50, seed=2)
    before = set(_shm_names())
    with CodecPool(3, metrics=metrics) as pool:
        blob = encode_xtc(t, keyframe_interval=4, workers=3, executor=pool)
        assert blob == encode_xtc(t, keyframe_interval=4)
        assert metrics.gauge("codec_shm_active").value == 0
    assert set(_shm_names()) == before

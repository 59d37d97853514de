"""Tests for the tiered block cache and the CachedFS coherence fixes."""

import pytest

from repro.fs import LocalFS
from repro.fs.cache import L1_BANDWIDTH, BlockCache, CachedFS
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, KB, MB, MiB, gbps, mbps


def _inner(sim, read=100.0):
    spec = DeviceSpec(
        name="disk",
        read_bw=mbps(read),
        write_bw=mbps(read),
        seek_latency_s=0.0,
        capacity=100 * GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, metadata_latency_s=0.0)


# -- CachedFS coherence (the stale-read regressions) -------------------------


def test_concurrent_overwrite_cannot_tear_a_cached_read():
    """A read in flight during an overwrite returns a consistent snapshot.

    Before the fix the read-hit path re-fetched data after paying its
    memory-time timeout, so a 1 GB cached read overlapping a tiny fast
    overwrite returned the *new* bytes with the *old* size -- torn.
    """
    sim = Simulator()
    fs = CachedFS(_inner(sim, read=1000.0), 4 * GB)
    old = b"a" * int(1 * MB)
    new = b"b" * 10
    sim.run_process(fs.write("f", data=old))
    assert fs.is_cached("f")

    def overwrite():
        # Land mid-read: the cached read pays ~1MB / 6 GB/s of memory time.
        yield sim.timeout(1e-5)
        yield from fs.write("f", data=new)

    sim.process(overwrite(), name="overwrite")
    obj = sim.run_process(fs.read("f"))
    assert obj.data == old  # the snapshot the reader started with
    assert obj.nbytes == len(old)  # ... and a size that matches it
    # The overwrite both invalidated and re-populated the cache.
    assert fs.metrics.value("page_cache_invalidations_total", fs=fs.name) >= 1
    assert sim.run_process(fs.read("f")).data == new


def test_overwrite_invalidates_before_backend_charge():
    sim = Simulator()
    fs = CachedFS(_inner(sim), 1 * GB)
    sim.run_process(fs.write("f", data=b"x" * 1000))
    assert fs.is_cached("f")
    sim.run_process(fs.write("f", data=b"y" * 1000))
    assert fs.metrics.value("page_cache_invalidations_total", fs=fs.name) == 1
    assert sim.run_process(fs.read("f")).data == b"y" * 1000


# -- BlockCache: tiers, LRU, accounting --------------------------------------


def _block_cache(sim, l1=1 * MiB, l2=0.0):
    return BlockCache(sim, l1_capacity_bytes=l1, l2_capacity_bytes=l2)


def test_lookup_miss_then_hit():
    sim = Simulator()
    cache = _block_cache(sim)
    key = ("bar.xtc", "p", 0)
    assert sim.run_process(cache.lookup([key]))[0] is None
    cache.admit(key, 1000, data=b"z" * 1000)
    block = sim.run_process(cache.lookup([key]))[0]
    assert block is not None and block.data == b"z" * 1000
    assert cache.metrics.value("block_cache_misses_total") == 1
    assert cache.metrics.value("block_cache_hits_total", tier="l1") == 1


def test_l1_hit_pays_memory_bandwidth_time():
    sim = Simulator()
    assert L1_BANDWIDTH == gbps(6.0)
    cache = BlockCache(sim, l1_capacity_bytes=1 * GB)
    cache.admit(("f", "p", 0), int(600 * MB))
    t0 = sim.now
    sim.run_process(cache.lookup([("f", "p", 0)]))
    assert sim.now - t0 == pytest.approx(0.1, rel=0.01)


def test_eviction_demotes_to_l2_and_promotes_back():
    sim = Simulator()
    cache = _block_cache(sim, l1=int(250 * KB), l2=int(1 * MB))
    for chunk in range(3):
        cache.admit(("f", "p", chunk), int(100 * KB))
    # chunk 0 was demoted to the SSD tier, not dropped.
    assert cache.metrics.value("block_cache_demotions_total") == 1
    assert ("f", "p", 0) in cache
    t0 = sim.now
    block = sim.run_process(cache.lookup([("f", "p", 0)]))[0]
    assert block is not None
    assert cache.metrics.value("block_cache_hits_total", tier="l2") == 1
    # L2 pays its latency floor; an L1 hit of the same size costs far less.
    l2_time = sim.now - t0
    t0 = sim.now
    sim.run_process(cache.lookup([("f", "p", 0)]))  # promoted: now an L1 hit
    assert cache.metrics.value("block_cache_hits_total", tier="l1") == 1
    assert sim.now - t0 < l2_time


def test_eviction_without_l2_drops():
    sim = Simulator()
    cache = _block_cache(sim, l1=int(250 * KB), l2=0.0)
    for chunk in range(3):
        cache.admit(("f", "p", chunk), int(100 * KB))
    assert cache.metrics.value("block_cache_evictions_total") >= 1
    assert ("f", "p", 0) not in cache
    assert cache.l1_bytes <= 250 * KB


def test_oversized_block_bypasses():
    sim = Simulator()
    cache = _block_cache(sim, l1=int(50 * KB))
    cache.admit(("f", "p", 0), int(100 * KB))
    assert ("f", "p", 0) not in cache
    assert len(cache) == 0


def test_invalidate_wildcards():
    sim = Simulator()
    cache = _block_cache(sim)
    cache.admit(("a", "p", 0), 10)
    cache.admit(("a", "p", 1), 10)
    cache.admit(("a", "m", 0), 10)
    cache.admit(("b", "p", 0), 10)
    cache.admit(("a", "p", 2), 20)
    assert cache.invalidate(logical="a", chunk=2) == 1
    assert cache.invalidate(logical="a", tag="m") == 1
    assert cache.invalidate(logical="a") == 2
    assert ("b", "p", 0) in cache
    assert cache.metrics.value("block_cache_invalidations_total") == 4


def test_pressure_tracks_l1_occupancy():
    sim = Simulator()
    cache = _block_cache(sim, l1=int(1 * MB))
    assert cache.pressure() == 0.0
    cache.admit(("f", "p", 0), int(500 * KB))
    assert cache.pressure() == pytest.approx(0.5)


def test_prefetched_accounting_hit_and_wasted():
    sim = Simulator()
    cache = _block_cache(sim, l1=int(250 * KB))
    cache.admit(("f", "p", 0), int(100 * KB), prefetched=True)
    sim.run_process(cache.lookup([("f", "p", 0)]))
    assert cache.metrics.value("block_cache_prefetch_hits_total") == 1
    cache.admit(("f", "p", 1), int(100 * KB), prefetched=True)
    cache.admit(("f", "p", 2), int(100 * KB))
    cache.admit(("f", "p", 3), int(100 * KB))  # evicts 1, never used
    assert cache.metrics.value("block_cache_prefetch_wasted_total") == 1


def test_stats_schema():
    sim = Simulator()
    cache = _block_cache(sim)
    cache.admit(("f", "p", 0), 10)
    sim.run_process(cache.lookup([("f", "p", 0)]))
    series = cache.metrics.query("block_cache_")
    for key in (
        'block_cache_bytes{tier="l1"}',
        'block_cache_bytes{tier="l2"}',
        'block_cache_hits_total{tier="l1"}',
        'block_cache_hits_total{tier="l2"}',
        "block_cache_misses_total",
        "block_cache_demotions_total",
        "block_cache_evictions_total",
        "block_cache_invalidations_total",
        "block_cache_prefetch_hits_total",
        "block_cache_prefetch_wasted_total",
        "block_cache_pressure",
    ):
        assert key in series
    assert len(cache) == 1
    hits = sum(cache.metrics.query("block_cache_hits_total").values())
    assert hits / (hits + series["block_cache_misses_total"]) == 1.0


# -- precision tiers share the cache without colliding ------------------------


def test_lod_and_full_tiers_never_collide():
    """The tier rides in the tag, so the same chunk cached coarse can
    never satisfy (or poison) a full-precision lookup -- and vice versa."""
    sim = Simulator()
    cache = _block_cache(sim)
    full_key = ("bar.xtc", "p", 0)
    lod_key = ("bar.xtc", "lod:p", 0)
    cache.admit(lod_key, 250, data=b"c" * 250)

    # A full-precision lookup of the same logical chunk is a miss.
    assert sim.run_process(cache.lookup([full_key]))[0] is None
    assert cache.metrics.value("block_cache_misses_total") == 1
    assert cache.metrics.value("block_cache_hits_total", tier="l1") == 0

    cache.admit(full_key, 1000, data=b"f" * 1000)
    exact = sim.run_process(cache.lookup([full_key]))[0]
    coarse = sim.run_process(cache.lookup([lod_key]))[0]
    assert exact.data == b"f" * 1000
    assert coarse.data == b"c" * 250
    assert cache.metrics.value("block_cache_hits_total", tier="l1") == 2

    # Accounting sees two distinct blocks, bytes summed per tier.
    assert len(cache) == 2
    assert cache.metrics.value("block_cache_bytes", tier="l1") == 1250

    # Invalidating the dataset's full tier leaves the coarse tier alone
    # only if asked per-tag; whole-logical invalidation drops both.
    cache.invalidate(logical="bar.xtc", tag="p")
    assert sim.run_process(cache.lookup([full_key]))[0] is None
    assert sim.run_process(cache.lookup([lod_key]))[0] is not None
    cache.invalidate(logical="bar.xtc")
    assert sim.run_process(cache.lookup([lod_key]))[0] is None

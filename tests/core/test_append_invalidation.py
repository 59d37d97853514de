"""An append invalidates its derived subset entries in O(tags), not O(cache).

``ingest_append`` must drop the dataset's *derived* (assembled
whole-subset) cache entries.  It used to do so with a wildcard
``invalidate(logical=..., chunk=DERIVED_SUBSET)`` that list-scanned every
resident L1 and L2 key -- and the sharded front repeated that scan once
per tag per holder.  Counted, not timed: with the cache's two tier maps
instrumented, the same append beside 16 and beside 4096 unrelated
resident blocks examines the same number of keys.
"""

from collections import OrderedDict

import pytest

from repro.cluster.shard import ShardNode, ShardedADA
from repro.core import ADA
from repro.fs.cache import DERIVED_SUBSET, BlockCache
from repro.fs.localfs import LocalFS
from repro.serve.fairshare import TenantBlockCache
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.units import MiB
from repro.workloads import build_workload

LOGICAL = "live.xtc"


class _CountingTier(OrderedDict):
    """A tier map that counts every key a caller looks at."""

    examined = 0

    def __iter__(self):
        for key in super().__iter__():
            type(self).examined += 1
            yield key

    def __contains__(self, key):
        type(self).examined += 1
        return super().__contains__(key)


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=200, nframes=8, seed=9, keyframe_interval=4)


def _instrument(cache: BlockCache) -> None:
    cache._l1 = _CountingTier(cache._l1)
    cache._l2 = _CountingTier(cache._l2)


def _append_cost(workload, resident: int, cache_cls=BlockCache):
    """Ingest, read (so derived entries exist), park ``resident``
    unrelated blocks, append once; return (keys examined, invalidated)."""
    sim = Simulator()
    cache = cache_cls(sim, l1_capacity_bytes=64 * MiB)
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        block_cache=cache,
    )
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob))
    sim.run_process(ada.ingest_append(LOGICAL, workload.xtc_blob))
    for tag in ada.tags(LOGICAL):
        sim.run_process(ada.fetch(LOGICAL, tag))  # admits the derived entry
        assert cache.peek((LOGICAL, tag, DERIVED_SUBSET))
    for i in range(resident):
        cache.admit(("other.xtc", "p", i), 64)
    before = ada.metrics.value("block_cache_invalidations_total")
    _instrument(cache)
    _CountingTier.examined = 0
    sim.run_process(ada.ingest_append(LOGICAL, workload.xtc_blob))
    examined = _CountingTier.examined
    for tag in ada.tags(LOGICAL):
        assert not cache.peek((LOGICAL, tag, DERIVED_SUBSET))
        assert cache.peek((LOGICAL, tag, 0))  # chunk blocks stay valid
    assert len(cache) >= resident
    dropped = ada.metrics.value("block_cache_invalidations_total") - before
    return examined, dropped


@pytest.mark.parametrize("cache_cls", [BlockCache, TenantBlockCache])
def test_append_examines_no_more_keys_in_a_full_cache(workload, cache_cls):
    short, dropped_short = _append_cost(workload, 16, cache_cls)
    long, dropped_long = _append_cost(workload, 4096, cache_cls)
    assert short == long
    assert dropped_short == dropped_long == 2  # one derived entry per tag


def test_exact_key_invalidate_matches_the_wildcard_scan():
    """Same hooks, same count, same survivors as the scan it replaces."""
    sim = Simulator()
    caches = [
        BlockCache(sim, l1_capacity_bytes=300.0, l2_capacity_bytes=1000.0)
        for _ in range(2)
    ]
    for cache in caches:
        for i in range(6):  # 100-byte blocks: three stay in L1, three demote
            cache.admit(("d.xtc", "p", i), 100)
        cache.admit(("d.xtc", "p", DERIVED_SUBSET), 100)
        cache.admit(("d.xtc", "m", DERIVED_SUBSET), 100)
    exact, scan = caches
    assert exact.invalidate("d.xtc", "p", 1) == 1  # an L2 resident
    assert exact.invalidate("d.xtc", "p", DERIVED_SUBSET) == 1
    assert exact.invalidate("d.xtc", "m", DERIVED_SUBSET) == 1
    assert exact.invalidate("d.xtc", "p", 99) == 0  # absent: nothing, no error
    assert scan.invalidate(logical="d.xtc", chunk=1) == 1
    assert scan.invalidate(logical="d.xtc", chunk=DERIVED_SUBSET) == 2
    assert list(exact._l1) == list(scan._l1)
    assert list(exact._l2) == list(scan._l2)
    assert (exact.l1_bytes, exact.l2_bytes) == (scan.l1_bytes, scan.l2_bytes)
    assert exact.metrics.query("block_cache_") == scan.metrics.query(
        "block_cache_"
    )


def test_sharded_append_visits_each_holder_once(workload, monkeypatch):
    sim = Simulator()
    nodes = [
        ShardNode.build(
            sim, f"node{i}",
            backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name=f"ssd{i}")},
            block_cache=BlockCache(sim),
        )
        for i in range(3)
    ]
    front = ShardedADA(sim, nodes, replicas=2, replicated_tags=("p", "m"))
    sim.run_process(front.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob))
    visits = []
    original = ADA._invalidate_derived

    def counting(self, logical):
        visits.append(self.shard_id)
        return original(self, logical)

    monkeypatch.setattr(ADA, "_invalidate_derived", counting)
    sim.run_process(front.ingest_append(LOGICAL, workload.xtc_blob))
    holders = {
        name
        for tag in front.all_tags(LOGICAL)
        for name in front.holders(LOGICAL, tag)
    }
    assert sorted(visits) == sorted(holders)  # once each, not per tag
    assert len(visits) < 2 * len(front.all_tags(LOGICAL))


def test_sharded_remove_scans_each_holder_cache_once(workload):
    """``remove`` drops a dataset by wildcard -- a full scan by design --
    but one scan per holder node, not one per (tag, holder) pair."""
    sim = Simulator()
    nodes = [
        ShardNode.build(
            sim, f"node{i}",
            backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name=f"ssd{i}")},
            block_cache=BlockCache(sim),
        )
        for i in range(3)
    ]
    front = ShardedADA(sim, nodes, replicas=2, replicated_tags=("p", "m"))
    sim.run_process(front.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob))
    for tag in front.tags(LOGICAL):
        sim.run_process(front.fetch(LOGICAL, tag))
    pairs = [
        (tag, name)
        for tag in front.all_tags(LOGICAL)
        for name in front.holders(LOGICAL, tag)
    ]
    holders = {name for _, name in pairs}
    assert len(pairs) > len(holders)  # some node holds several tags
    one_scan_each = 0
    for node in nodes:
        cache = node.ada.block_cache
        for i in range(64):
            cache.admit(("other.xtc", "p", i), 64)
        if node.name in holders:
            one_scan_each += len(cache)
        _instrument(cache)
    _CountingTier.examined = 0
    assert front.remove(LOGICAL) > 0
    assert 0 < _CountingTier.examined <= one_scan_each
    for node in nodes:
        assert all(key[0] == "other.xtc" for key in node.ada.block_cache._l1)

"""Tenant isolation: bit-identical reads and cache-quota enforcement.

The serving layer multiplexes tenants over one shared cache and
prefetcher; isolation means a tenant cannot observe its neighbors in
its *data* (bit-identity) and cannot lose its *reserved* working set to
them (quota enforcement over the reclaimable shared pool).
"""

import hashlib

import pytest

from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog, run_traffic
from repro.harness.benchserve import build_front
from repro.serve import DatasetRef, TenantBlockCache, TrafficConfig
from repro.sim import Simulator

pytestmark = pytest.mark.serve

#: Small but contended: 2 datasets x 6 chunks over a 128 KiB L1.
_WORKLOAD = dict(ndatasets=2, natoms=200, nchunks=6, frames_per_chunk=4, seed=3)
_NTENANTS = 8


@pytest.fixture(scope="module")
def catalog_blobs():
    return chunked_catalog(
        _WORKLOAD["ndatasets"], _WORKLOAD["natoms"], _WORKLOAD["nchunks"],
        _WORKLOAD["frames_per_chunk"], _WORKLOAD["seed"],
    )


def _front(catalog_blobs, **overrides):
    kwargs = dict(
        ntenants=_NTENANTS,
        concurrency=4,
        l1_capacity_bytes=128 * 1024.0,
        max_inflight=4,
        byte_budget=None,
    )
    kwargs.update(overrides)
    return build_front(catalog_blobs, **kwargs)


def _catalog():
    return [
        DatasetRef(f"traj{i}.xtc", PLAYBACK_TAG, _WORKLOAD["nchunks"])
        for i in range(_WORKLOAD["ndatasets"])
    ]


def _traffic(**overrides):
    kwargs = dict(
        mode="closed", requests_per_tenant=10, window_chunks=3,
        zipf_s=1.1, seed=_WORKLOAD["seed"],
    )
    kwargs.update(overrides)
    return TrafficConfig(**kwargs)


def test_reads_bit_identical_solo_vs_contended(catalog_blobs):
    """t0 sees the same bytes alone and against seven hot neighbors."""
    config = _traffic()
    tenants = [f"t{i}" for i in range(_NTENANTS)]

    solo = run_traffic(_front(catalog_blobs), ["t0"], _catalog(), config)
    contended = run_traffic(_front(catalog_blobs), tenants, _catalog(), config)

    assert solo["per_tenant"]["t0"]["completed"] == config.requests_per_tenant
    assert contended["completed"] == _NTENANTS * config.requests_per_tenant
    assert contended["failed"] == 0
    assert (
        contended["per_tenant"]["t0"]["digest"]
        == solo["per_tenant"]["t0"]["digest"]
    )


def test_served_bytes_match_direct_middleware_access(catalog_blobs):
    """The serving front returns exactly what raw ADA.fetch_chunks does."""
    from repro.serve import TrafficGenerator

    config = _traffic()
    generator = TrafficGenerator(_catalog(), config)

    # Ground truth: replay t0's deterministic plan straight against a
    # fresh middleware, no serving layer anywhere near it.
    front = _front(catalog_blobs)  # only borrowing its ingested deployment
    expected = hashlib.sha256()
    for ref, window in generator.plan("t0"):
        objs = front.ada.sim.run_process(
            front.ada.fetch_chunks(ref.logical, ref.tag, window)
        )
        for obj in objs:
            expected.update(obj.data if obj.data is not None else b"")

    served = run_traffic(_front(catalog_blobs), ["t0"], _catalog(), config)
    assert served["per_tenant"]["t0"]["digest"] == expected.hexdigest()


def test_quota_protects_working_set_from_neighbor_scan():
    """A's within-quota blocks survive B's cache-filling scan."""
    current = {"tenant": None}
    sim = Simulator()
    cache = TenantBlockCache(
        sim,
        l1_capacity_bytes=10_000.0,
        tenant_source=lambda: current["tenant"],
    )
    cache.set_quota("a", 5_000.0)

    current["tenant"] = "a"
    a_keys = [("d.xtc", "p", i) for i in range(5)]
    for key in a_keys:
        cache.admit(key, 1_000, data=b"a")
    assert cache.charged_bytes("a") == 5_000.0

    # B (no reservation) streams 20 KiB through a 10 KiB L1.
    current["tenant"] = "b"
    for i in range(20):
        cache.admit(("scan.xtc", "p", i), 1_000, data=b"b")

    assert all(key in cache for key in a_keys), "quota failed to protect A"
    assert cache.charged_bytes("a") == 5_000.0
    # B's own blocks evicted each other; the cache never overflowed.
    assert cache.l1_bytes <= cache.l1_capacity_bytes
    assert cache.metrics.value("block_cache_quota_evictions_total") > 0
    assert cache.quota_bytes("a") == 5_000.0 == cache.charged_bytes("a")


def test_shared_pool_is_reclaimable_not_wasted():
    """A lone tenant may overflow its quota into idle capacity; pressure
    reclaims the excess from *that tenant*, oldest first."""
    current = {"tenant": "a"}
    sim = Simulator()
    cache = TenantBlockCache(
        sim,
        l1_capacity_bytes=10_000.0,
        tenant_source=lambda: current["tenant"],
    )
    cache.set_quota("a", 5_000.0)

    # Uncontended: all ten 1 KB blocks fit, double the reservation.
    for i in range(10):
        cache.admit(("d.xtc", "p", i), 1_000, data=b"a")
    assert cache.charged_bytes("a") == 10_000.0
    assert cache.metrics.value("block_cache_evictions_total") == 0

    # Two more force evictions: the over-quota tenant pays, LRU first.
    for i in range(10, 12):
        cache.admit(("d.xtc", "p", i), 1_000, data=b"a")
    assert cache.l1_bytes == 10_000.0
    assert ("d.xtc", "p", 0) not in cache
    assert ("d.xtc", "p", 11) in cache


def test_cross_tenant_hit_moves_block_to_shared_pool():
    """Charge follows use: a block two tenants touch belongs to neither."""
    current = {"tenant": "a"}
    sim = Simulator()
    cache = TenantBlockCache(
        sim,
        l1_capacity_bytes=10_000.0,
        tenant_source=lambda: current["tenant"],
    )
    key = ("d.xtc", "p", 0)
    cache.admit(key, 1_000, data=b"x")
    assert cache.owner(key) == "a"

    current["tenant"] = "b"
    block = sim.run_process(cache.lookup([key]))[0]
    assert block is not None
    assert cache.owner(key) is None
    assert cache.metrics.value("block_cache_cross_tenant_hits_total") == 1
    assert cache.charged_bytes("a") == 0.0
    assert cache.charged_bytes(None) == 1_000.0

    # A community block stays communal: A touching it again changes nothing.
    current["tenant"] = "a"
    sim.run_process(cache.lookup([key]))
    assert cache.owner(key) is None
    assert cache.metrics.value("block_cache_cross_tenant_hits_total") == 1


def test_contended_quotas_hold_under_real_traffic(catalog_blobs):
    """End to end: after an 8-way contended run, no tenant's charged L1
    bytes exceed quota + one block, and the pool stayed within L1."""
    # L1 holds about a third of the catalog, so eviction pressure is real.
    front = _front(catalog_blobs, l1_capacity_bytes=40 * 1024.0)
    run_traffic(front, [f"t{i}" for i in range(_NTENANTS)], _catalog(), _traffic())
    cache = front.ada.block_cache
    assert isinstance(cache, TenantBlockCache)
    assert cache.l1_bytes <= cache.l1_capacity_bytes
    value = front.metrics.value
    # The fair-share machinery actually fired under this contention.
    assert value("block_cache_cross_tenant_hits_total") > 0
    assert value("block_cache_quota_evictions_total") > 0

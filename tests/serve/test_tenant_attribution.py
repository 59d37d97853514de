"""Tenant attribution rides the DES process, not the trace-span chain.

The scheduler stamps the tenant on the process executing a request
(``Process.context``); every process that one spawns inherits it.  So
billing must come out the same whether or not a tracer is attached --
serving no longer forces one -- and a read made outside any request is
nobody's.
"""

import pytest

from repro.cluster.shard import ShardedADA, ShardNode
from repro.fs.localfs import LocalFS
from repro.core.middleware import ADA
from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.errors import ConfigurationError
from repro.fs.cache import BlockCache
from repro.serve import ServeFront, TenantBlockCache
from repro.sim import AllOf, Simulator
from repro.storage.hdd import WD_1TB_HDD

pytestmark = pytest.mark.serve

_NCHUNKS = 12
_WINDOW = 2
_TENANTS = ("t0", "t1", "t2")


@pytest.fixture(scope="module")
def catalog_blobs():
    return chunked_catalog(2, 200, _NCHUNKS, 4, 5)


#: One chunk is ~4.3 KiB, a window two: t0 and t1 may speculate one window
#: ahead, t2's budget is smaller than a window and refuses every one.
_PREFETCH_BUDGET = {"t0": 12 * 1024, "t1": 12 * 1024, "t2": 6 * 1024}
_ROOMY = 192 * 1024.0  # holds both datasets: prefetch is never stood down
_TIGHT = 48 * 1024.0  # about half of them: quotas decide who is evicted


def _ingest(ada, catalog_blobs) -> None:
    for logical, pdb_text, chunks in catalog_blobs:
        ada.sim.run_process(ada.ingest(logical, pdb_text, chunks[0]))
        for blob in chunks[1:]:
            ada.sim.run_process(ada.ingest_append(logical, blob))


def _single(catalog_blobs, l1: float = _ROOMY) -> ServeFront:
    """Three tenants over one ADA with a fair-share cache."""
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"hdd": LocalFS(sim, WD_1TB_HDD, name="hdd")},
        block_cache=TenantBlockCache(
            sim, l1_capacity_bytes=l1, l2_capacity_bytes=l1
        ),
        prefetch=True,
    )
    _ingest(ada, catalog_blobs)
    front = ServeFront(ada, concurrency=2)
    for name in _TENANTS:
        front.register(
            name, max_inflight=4, cache_quota_bytes=int(l1 / 6),
            prefetch_budget_bytes=_PREFETCH_BUDGET[name],
        )
    return front


def _tight(catalog_blobs) -> ServeFront:
    return _single(catalog_blobs, l1=_TIGHT)


def _sharded(catalog_blobs) -> ServeFront:
    """The same tenants over a 2-node cluster with fair-share node caches."""
    sim = Simulator()
    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim, f"node{i}",
            backends={"hdd": LocalFS(sim, WD_1TB_HDD, name=f"node{i}:hdd")},
            metrics=metrics,
            block_cache=TenantBlockCache(sim, l1_capacity_bytes=_ROOMY),
            prefetch=True,
        )
        for i in range(2)
    ]
    sharded = ShardedADA(sim, nodes, replicas=2, metrics=metrics)
    _ingest(sharded, catalog_blobs)
    front = ServeFront(sharded, concurrency=2)
    for name in _TENANTS:
        front.register(
            name, max_inflight=4,
            prefetch_budget_bytes=_PREFETCH_BUDGET[name],
        )
    return front


def _scan(session, logical):
    """Sequential windows: confirms a stride, so prefetches are issued."""
    for start in range(0, _NCHUNKS, _WINDOW):
        yield from session.fetch_chunks(
            logical, PLAYBACK_TAG, range(start, start + _WINDOW)
        )


def _drive(front: ServeFront) -> None:
    """t0 and t1 scan the same dataset (cross-tenant hits), t2 another."""
    sim = front.sim
    plan = {"t0": "traj0.xtc", "t1": "traj0.xtc", "t2": "traj1.xtc"}
    procs = [
        sim.process(_scan(front.session(name), logical), name=f"scan:{name}")
        for name, logical in plan.items()
    ]

    def barrier():
        yield AllOf(sim, procs)

    sim.run_process(barrier())


def _deployments(front: ServeFront):
    """``(cache, prefetcher)`` of every middleware behind the front."""
    return [
        (member.block_cache, member.prefetcher)
        for member in front.ada.members()
    ]


def _ledger(front: ServeFront):
    """Everything tenant attribution decides, as plain data."""
    out = []
    for cache, prefetcher in _deployments(front):
        out.append({
            "cache": cache.metrics.query(
                "block_cache_", **cache.metric_labels
            ),
            "charged": {
                t: cache.charged_bytes(t) for t in _TENANTS + (None,)
            },
            "speculative": {
                t: cache.prefetched_bytes(t) for t in _TENANTS + (None,)
            },
            "owners": {key: cache.owner(key) for key in cache._owner},
            "streams": {
                key: (s.last_start, s.stride, s.confirmed, s.direction)
                for key, s in prefetcher._streams.items()
            },
            "prefetch": prefetcher.metrics.query(
                "prefetch_", **prefetcher.metric_labels
            ),
        })
    return out, front.sim.now


def test_serve_front_attaches_no_tracer(catalog_blobs):
    front = _single(catalog_blobs)
    assert front.sim.tracer is None
    assert not hasattr(front, "tracer")
    _drive(front)
    assert front.sim.tracer is None


@pytest.mark.parametrize(
    "build", [_single, _tight, _sharded], ids=["ada", "ada-tight", "sharded"]
)
def test_attribution_is_the_same_with_and_without_a_tracer(
    catalog_blobs, build
):
    untraced = build(catalog_blobs)
    traced = build(catalog_blobs)
    tracer = Tracer(traced.sim)
    _drive(untraced)
    _drive(traced)

    assert tracer.find("serve.request", tenant="t1")
    assert untraced.sim.tracer is None
    ledgers, now = _ledger(untraced)
    assert (ledgers, now) == _ledger(traced)

    # The scenario has teeth: every attributed quantity actually moved.
    def total(family):
        return sum(untraced.metrics.query(family).values())

    assert total("block_cache_cross_tenant_hits_total") > 0
    assert {key[1] for e in ledgers for key in e["streams"]} == set(_TENANTS)
    assert any(e["charged"][t] > 0 for e in ledgers for t in _TENANTS)
    if build is _tight:
        assert total("block_cache_quota_evictions_total") > 0
    else:
        assert total("prefetch_issued_total") > 0
        assert total("prefetch_suppressed_budget_total") > 0


@pytest.mark.parametrize("build", [_single, _sharded], ids=["ada", "sharded"])
def test_background_prefetch_is_billed_to_the_spawning_tenant(
    catalog_blobs, build
):
    front = build(catalog_blobs)
    sim = front.sim
    session = front.session("t0")
    spawned = []

    def three_windows():
        for start in (0, 2, 4):
            yield from session.fetch_chunks(
                "traj0.xtc", PLAYBACK_TAG, [start, start + 1]
            )
        # The third window confirmed the stride and launched [6, 7].
        for _cache, prefetcher in _deployments(front):
            spawned.extend(prefetcher._inflight.get("t0", ()))

    sim.run_process(three_windows())  # drains the background read too
    assert spawned and all(proc.context == "t0" for proc in spawned)
    assert all(not proc.is_alive and proc.ok for proc in spawned)
    billed = 0.0
    for cache, _prefetcher in _deployments(front):
        for chunk in (6, 7):
            key = ("traj0.xtc", PLAYBACK_TAG, chunk)
            if cache.peek(key):
                assert cache.owner(key) == "t0"
        billed += cache.prefetched_bytes("t0")
        assert cache.prefetched_bytes(None) == 0.0
    assert billed > 0.0


@pytest.mark.parametrize("build", [_single, _sharded], ids=["ada", "sharded"])
def test_read_outside_any_request_is_billed_to_nobody(catalog_blobs, build):
    front = build(catalog_blobs)
    sim = front.sim
    for start in range(0, 8, 2):  # sequential: also launches prefetches
        sim.run_process(
            front.ada.fetch_chunks(
                "traj0.xtc", PLAYBACK_TAG, [start, start + 1]
            )
        )
    resident = 0
    for cache, prefetcher in _deployments(front):
        resident += len(cache)
        assert all(owner is None for owner in cache._owner.values())
        assert all(cache.charged_bytes(t) == 0.0 for t in _TENANTS)
        assert all(key[1] is None for key in prefetcher._streams)
    assert resident >= 8


# -- one wiring for both deployments ------------------------------------------

_FOUR = ("traj0.xtc", PLAYBACK_TAG, range(4))


def _node(sim, name, metrics, cache_cls=TenantBlockCache):
    return ShardNode.build(
        sim, name,
        backends={"hdd": LocalFS(sim, WD_1TB_HDD, name=f"{name}:hdd")},
        metrics=metrics,
        block_cache=cache_cls(sim, l1_capacity_bytes=_ROOMY),
        prefetch=True,
    )


def _billed_for_four_chunks(front: ServeFront, tenant="t0"):
    """``(tenant's bytes, shared-pool bytes)`` over every node's cache
    after the tenant reads four chunks."""
    objs = front.sim.run_process(front.session(tenant).fetch_chunks(*_FOUR))
    caches = [member.block_cache for member in front.ada.members()]
    return (
        sum(obj.nbytes for obj in objs),
        sum(cache.charged_bytes(tenant) for cache in caches),
        sum(cache.charged_bytes(None) for cache in caches),
    )


def test_sharded_front_bills_the_tenant_like_a_single_node(catalog_blobs):
    """The same read bills the same tenant the same bytes whichever data
    plane is behind the front: the front wires every member's cache (a
    shard node's used to bill the shared pool), ``cache_quota_bytes``
    reserves on every node, and a node that joins later is wired too."""
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"hdd": LocalFS(sim, WD_1TB_HDD, name="hdd")},
        block_cache=TenantBlockCache(sim, l1_capacity_bytes=_ROOMY),
        prefetch=True,
    )
    _ingest(ada, catalog_blobs)
    single = ServeFront(ada)
    single.register("t0", cache_quota_bytes=8192)
    payload, billed, shared = _billed_for_four_chunks(single)
    assert (billed, shared) == (payload, 0.0)

    sim = Simulator()
    metrics = MetricsRegistry()
    sharded = ShardedADA(
        sim, [_node(sim, f"node{i}", metrics) for i in range(2)],
        replicas=3, metrics=metrics,
    )
    _ingest(sharded, catalog_blobs)
    front = ServeFront(sharded)
    front.register("t0", cache_quota_bytes=8192)
    assert [
        member.block_cache.quota_bytes("t0") for member in sharded.members()
    ] == [8192.0, 8192.0]
    assert _billed_for_four_chunks(front) == (payload, billed, shared)

    # A third node joins, takes its replica, and then is the only one up.
    late = _node(sim, "node2", metrics)
    sim.run_process(sharded.add_node(late))
    cache, prefetcher = late.ada.block_cache, late.ada.prefetcher
    assert cache.tenant_source is front.tenant_source
    assert prefetcher.tenant_source is front.tenant_source
    assert prefetcher.budget_source == front._prefetch_budget
    sharded.kill_node("node0")
    sharded.kill_node("node1")
    sim.run_process(front.session("t0").fetch_chunks(*_FOUR))
    assert cache.charged_bytes("t0") == billed
    assert cache.charged_bytes(None) == 0.0


def test_cache_quota_on_plain_node_caches_names_the_cause(catalog_blobs):
    sim = Simulator()
    sharded = ShardedADA(
        sim, [_node(sim, "node0", None, cache_cls=BlockCache)]
    )
    front = ServeFront(sharded)
    with pytest.raises(
        ConfigurationError, match="TenantBlockCache on every node.*BlockCache"
    ):
        front.register("t0", cache_quota_bytes=8192)
    assert "t0" not in front.sessions.stats()  # nothing half-registered

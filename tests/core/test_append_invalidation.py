"""An append leaves nothing stale in the block cache, on every front.

The block cache holds one entry per stored chunk, keyed ``(logical, tag,
chunk)`` with ``chunk >= 0``, and chunks never change once written -- so
an append (``ingest_append`` or an appending ``ingest_stream``) adds keys
and has nothing to invalidate.  Checked through behaviour, not through
the cache's keys: after each append, a fetch on a cached ``ADA`` or
``ShardedADA(replicas=2)``, over a plain or a tenant-partitioned cache,
returns exactly the bytes a cache-less ``ADA`` fed the same writes
returns, from every replica when routing is forced to it.  The append
itself examines no cache key at all, however full the cache.

``remove`` is the one path that does invalidate, by wildcard: one scan
per holder node, not one per ``(tag, holder)`` pair.
"""

from collections import OrderedDict

import pytest

from repro.cluster.shard import ShardNode, ShardedADA
from repro.core import ADA, PlacementPolicy
from repro.core.ingest import IngestPipelineConfig
from repro.formats.xtc import encode_xtc
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.serve.fairshare import TenantBlockCache
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

LOGICAL = "live.xtc"
#: Both subsets hot, so each lives on both replicas of a sharded front.
HOT_PM = PlacementPolicy(frozenset({"p", "m"}), "ssd", "ssd")


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
    return build_workload(natoms=200, nframes=12, seed=9, keyframe_interval=4)


@pytest.fixture(scope="module")
def segments(workload):
    """The first ingest, the appended batch and the appended stream."""
    traj = workload.trajectory
    return [
        encode_xtc(traj.slice_frames(lo, lo + 4), keyframe_interval=4)
        for lo in (0, 4, 8)
    ]


def _instrument(cache: BlockCache) -> None:
    cache._l1 = _CountingTier(cache._l1)
    cache._l2 = _CountingTier(cache._l2)


def _ssd(sim, name="ssd"):
    return {"ssd": LocalFS(sim, NVME_SSD_256GB, name=name)}


def _sharded(sim, block_cache):
    nodes = [
        ShardNode.build(
            sim, f"node{i}", backends=_ssd(sim, f"ssd{i}"),
            block_cache=block_cache(sim), placement=HOT_PM,
        )
        for i in range(3)
    ]
    return ShardedADA(sim, nodes, replicas=2)


def _writes(front, workload, segments):
    """Ingest, then yield after each of the two appends."""
    run = front.sim.run_process
    first, batch, stream = segments
    run(front.ingest(LOGICAL, workload.pdb_text, first))
    yield "ingest"
    run(front.ingest_append(LOGICAL, batch))
    yield "ingest_append"
    run(
        front.ingest_stream(
            LOGICAL, stream, config=IngestPipelineConfig(window_frames=2)
        )
    )
    yield "ingest_stream"


@pytest.mark.parametrize(
    "cache_cls", [BlockCache, TenantBlockCache], ids=lambda c: c.__name__
)
@pytest.mark.parametrize("kind", ["ADA", "ShardedADA"])
def test_a_fetch_after_an_append_returns_the_appended_bytes(
    workload, segments, kind, cache_cls
):
    ref_sim, sim = Simulator(), Simulator()
    reference = ADA(ref_sim, backends=_ssd(ref_sim))
    if kind == "ADA":
        front = ADA(sim, backends=_ssd(sim), block_cache=cache_cls(sim))
    else:
        front = _sharded(sim, cache_cls)
    caches = [member.block_cache for member in front.members()]
    for cache in caches:
        _instrument(cache)
    _CountingTier.examined = 0
    lengths = {}
    for step, _ in zip(
        _writes(front, workload, segments),
        _writes(reference, workload, segments),
    ):
        # A write, append or not, never looks at a cache key.
        assert _CountingTier.examined == 0, step
        for tag in front.tags(LOGICAL):
            want = ref_sim.run_process(reference.fetch(LOGICAL, tag)).data
            assert len(want) > lengths.get(tag, 0), (step, tag)
            lengths[tag] = len(want)
            if kind == "ADA":
                holders = [None]
            else:
                holders = front.holders(LOGICAL, tag)
                assert len(holders) == (2 if tag in ("p", "m") else 1)
            for holder in holders:
                if holder is not None:
                    # Forced routing: this read is served by ``holder``.
                    front._select = lambda logical, t, live, h=holder: h
                got = sim.run_process(front.fetch(LOGICAL, tag)).data
                assert got == want, (step, tag, holder)
        merged = sim.run_process(front.fetch_merged(LOGICAL))
        assert merged.nframes == ref_sim.run_process(
            reference.fetch_merged(LOGICAL)
        ).nframes
        _CountingTier.examined = 0
    resident = [key for cache in caches for key in (*cache._l1, *cache._l2)]
    assert resident  # the fetches above did go through the caches
    assert all(chunk >= 0 for _, _, chunk in resident)


def test_sharded_remove_scans_each_holder_cache_once(workload):
    """``remove`` drops a dataset by wildcard -- a full scan by design --
    but one scan per holder node, not one per (tag, holder) pair."""
    sim = Simulator()
    front = _sharded(sim, BlockCache)
    nodes = front.nodes.values()
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

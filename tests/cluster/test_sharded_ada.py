"""ShardedADA behavior: transparency, replication, attribution, rebalance.

The cluster front's contract is that sharding is invisible to data:
every byte fetched through N nodes is bit-identical to the same fetch
through one plain :class:`~repro.core.ADA`, whatever happens to the
node set in between (adds, drains, fail-stops of redundant holders).
"""

import warnings

import numpy as np
import pytest

from repro.cluster.shard import ShardNode, ShardedADA
from repro.core import ADA
from repro.errors import ContainerError, DegradedReadWarning, NodeDownError
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.harness.benchkit import chunked_catalog
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD

pytestmark = pytest.mark.cluster

BLOBS = chunked_catalog(
    ndatasets=4, natoms=400, nchunks=5, frames_per_chunk=4, seed=11
)


def _ingest(sim, front):
    for logical, pdb_text, chunks in BLOBS:
        sim.run_process(front.ingest(logical, pdb_text, chunks[0]))
        for blob in chunks[1:]:
            sim.run_process(front.ingest_append(logical, blob))


def build_cluster(nnodes=4, replicas=2, **kwargs):
    sim = Simulator()
    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim,
            f"node{i}",
            backends={"hdd": LocalFS(sim, WD_1TB_HDD, name=f"node{i}:hdd")},
            metrics=metrics,
            block_cache=BlockCache(sim, l1_capacity_bytes=1 << 20),
            prefetch=True,
        )
        for i in range(nnodes)
    ]
    front = ShardedADA(sim, nodes, replicas=replicas, metrics=metrics, **kwargs)
    _ingest(sim, front)
    return sim, front


def build_single():
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"hdd": LocalFS(sim, WD_1TB_HDD, name="hdd")},
        block_cache=BlockCache(sim, l1_capacity_bytes=1 << 20),
        prefetch=True,
    )
    _ingest(sim, ada)
    return sim, ada


def test_reads_bit_identical_to_single_middleware():
    sim1, single = build_single()
    simn, front = build_cluster()
    for logical, _, _ in BLOBS:
        for tag in single.tags(logical):
            ref = sim1.run_process(single.fetch(logical, tag))
            got = simn.run_process(front.fetch(logical, tag))
            assert got.data == ref.data, f"{logical}#{tag}"
        ref_chunks = sim1.run_process(single.fetch_chunks(logical, "p", [1, 3]))
        got_chunks = simn.run_process(front.fetch_chunks(logical, "p", [1, 3]))
        assert [o.data for o in got_chunks] == [o.data for o in ref_chunks]
        ref_traj = sim1.run_process(single.fetch_merged(logical))
        got_traj = simn.run_process(front.fetch_merged(logical))
        assert np.array_equal(got_traj.coords, ref_traj.coords)
        assert np.array_equal(got_traj.steps, ref_traj.steps)


def test_replicated_tag_lands_on_every_holder():
    _, front = build_cluster(nnodes=4, replicas=2)
    for logical, _, _ in BLOBS:
        holders = front.holders(logical, "p")
        assert len(holders) == 2
        assert holders == front.targets(logical, "p")
        for name in holders:
            records = front.nodes[name].ada.plfs.subset_records(logical, "p")
            assert records, f"{name} missing replica of {logical}#p"
        # Unreplicated tags live on exactly one node.
        for tag in front.tags(logical):
            if tag != "p":
                assert len(front.holders(logical, tag)) == 1


def test_fetch_survives_killing_any_single_replica():
    for victim_rank in (0, 1):
        sim, front = build_cluster(nnodes=4, replicas=2)
        logical = BLOBS[0][0]
        reference = sim.run_process(front.fetch(logical, "p")).data
        front.kill_node(front.holders(logical, "p")[victim_rank])
        assert sim.run_process(front.fetch(logical, "p")).data == reference
    # The survivor is the only counted server of the post-kill read.
    assert front.metrics.value("cluster_failovers_total") >= 0


def test_fetch_fails_only_when_every_holder_is_dead():
    sim, front = build_cluster(nnodes=4, replicas=2)
    logical = BLOBS[0][0]
    for name in front.holders(logical, "p"):
        front.kill_node(name)
    with pytest.raises(NodeDownError):
        sim.run_process(front.fetch(logical, "p"))


def test_degraded_read_warning_for_unreplicated_tag():
    sim, front = build_cluster(nnodes=4, replicas=2)
    logical = BLOBS[0][0]
    misc_tags = [t for t in front.tags(logical) if t != "p"]
    (holder,) = front.holders(logical, misc_tags[0])
    # Keep a p replica alive: the read degrades instead of failing.
    survivors = [n for n in front.holders(logical, "p") if n != holder]
    assert survivors, "placement collision; pick another seed"
    front.kill_node(holder)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        subsets = sim.run_process(front.fetch_all(logical))
    assert any(
        isinstance(w.message, DegradedReadWarning) for w in caught
    )
    assert "p" in subsets
    assert misc_tags[0] not in subsets
    assert any(entry[0] == logical for entry in front.degraded)


def test_per_shard_metric_attribution():
    """Satellite regression: two shards' counters must never merge."""
    sim, front = build_cluster(nnodes=2, replicas=1)
    for logical, _, _ in BLOBS:
        sim.run_process(front.fetch(logical, "p"))
    families = {
        fam["name"]: fam for fam in front.metrics.to_json()["families"]
    }
    by_shard = {
        sample["labels"]["shard"]: sample["value"]
        for sample in families["retriever_bytes_total"]["metrics"]
    }
    assert set(by_shard) == {"node0", "node1"}
    assert all(value > 0 for value in by_shard.values())
    served = {
        sample["labels"]["shard"]: sample["value"]
        for sample in families["shard_served_bytes_total"]["metrics"]
    }
    total_p = sum(
        front.subset_nbytes(logical, "p") for logical, _, _ in BLOBS
    )
    assert sum(served.values()) == total_p
    # Cache counters are shard-labelled too (the bind_metrics re-home).
    cache_labels = {
        tuple(sorted(sample["labels"].items()))
        for sample in families["block_cache_hits_total"]["metrics"]
    }
    assert (("shard", "node0"), ("tier", "l1")) in cache_labels
    assert (("shard", "node1"), ("tier", "l1")) in cache_labels


def test_prefetch_streams_scoped_per_shard():
    """Satellite regression: stride streams carry their shard id."""
    sim, front = build_cluster(nnodes=2, replicas=1)
    for logical, _, _ in BLOBS:
        for window in ([0, 1], [2, 3]):
            sim.run_process(front.fetch_chunks(logical, "p", window))
    streams = 0
    for name, node in front.nodes.items():
        for key in node.ada.prefetcher._streams:
            shard_id, _tenant, logical, tag = key
            assert shard_id == name
            assert (logical, tag) in front._placement
            assert front.holders(logical, tag) == [name]
            streams += 1
    assert streams == len(BLOBS)


def test_add_node_moves_minimally_and_preserves_bytes():
    sim, front = build_cluster(nnodes=4, replicas=2)
    reference = {
        (logical, tag): sim.run_process(front.fetch(logical, tag)).data
        for logical, _, _ in BLOBS
        for tag in front.tags(logical)
    }
    before = dict(front._placement)
    new_node = ShardNode.build(
        sim,
        "node4",
        backends={"hdd": LocalFS(sim, WD_1TB_HDD, name="node4:hdd")},
        metrics=front.metrics,
        block_cache=BlockCache(sim, l1_capacity_bytes=1 << 20),
        prefetch=True,
    )
    moved = sim.run_process(front.add_node(new_node))
    changed = [
        key for key in before if front._placement[key] != before[key]
    ]
    # Only ring-adjacent ranges migrate: a strict minority of keys.
    assert moved["keys_moved"] == len(changed)
    assert len(changed) < len(before) / 2
    for key, holders in front._placement.items():
        assert holders == front.targets(*key)
    for (logical, tag), data in reference.items():
        assert sim.run_process(front.fetch(logical, tag)).data == data
    for node in front.nodes.values():
        assert node.ada.plfs.fsck()["ok"]


def test_drain_node_evacuates_and_preserves_bytes():
    sim, front = build_cluster(nnodes=4, replicas=2)
    reference = {
        (logical, tag): sim.run_process(front.fetch(logical, tag)).data
        for logical, _, _ in BLOBS
        for tag in front.tags(logical)
    }
    victim = "node2"
    moved = sim.run_process(front.drain_node(victim))
    assert victim not in front.nodes
    assert moved["keys_moved"] > 0 or all(
        victim not in holders for holders in front._placement.values()
    )
    for holders in front._placement.values():
        assert victim not in holders
    for (logical, tag), data in reference.items():
        assert sim.run_process(front.fetch(logical, tag)).data == data
    for node in front.nodes.values():
        assert node.ada.plfs.fsck()["ok"]


def test_remove_deletes_from_every_holder():
    sim, front = build_cluster(nnodes=4, replicas=2)
    logical = BLOBS[0][0]
    holders = list(front.holders(logical, "p"))
    freed = front.remove(logical)
    assert freed > 0
    for name in holders:
        # Either the whole container vanished with its last subset, or
        # the index survives for other tags and lists no p records.
        try:
            records = front.nodes[name].ada.plfs.subset_records(logical, "p")
        except ContainerError:
            records = []
        assert not records
    with pytest.raises(Exception):
        front.holders(logical, "p")


def test_single_node_cluster_matches_plain_ada():
    sim1, single = build_single()
    simn, front = build_cluster(nnodes=1, replicas=2)
    logical = BLOBS[2][0]
    assert (
        simn.run_process(front.fetch(logical, "p")).data
        == sim1.run_process(single.fetch(logical, "p")).data
    )
    assert front.container_nbytes(logical) == single.container_nbytes(logical)

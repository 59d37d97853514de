"""ShardedADA behavior: transparency, replication, attribution, placement.

The cluster front's contract is that sharding is invisible to data:
every byte fetched through N nodes is bit-identical to the same fetch
through one plain :class:`~repro.core.ADA`, whatever happens to the
node set in between (fail-stops of redundant holders).  Membership is
fixed at construction, so a key's holders never move after its first
store.
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


def _ingest(sim, front, appends=True):
    for logical, pdb_text, chunks in BLOBS:
        sim.run_process(front.ingest(logical, pdb_text, chunks[0]))
        for blob in chunks[1:] if appends else ():
            sim.run_process(front.ingest_append(logical, blob))


def build_cluster(nnodes=4, replicas=2, appends=True, **kwargs):
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
    _ingest(sim, front, appends)
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


def test_losing_an_unreplicated_active_tag_still_raises():
    """With one copy of everything, the active tag is still not
    expendable: ``fetch_all`` past its only holder raises instead of
    returning a session without the protein."""
    sim, front = build_cluster(nnodes=4, replicas=1)
    logical = BLOBS[0][0]
    front.kill_node(front.holders(logical, "p")[0])
    with pytest.raises(NodeDownError):
        sim.run_process(front.fetch_all(logical))


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
    """Each node's prefetcher tracks only the streams it holds."""
    sim, front = build_cluster(nnodes=2, replicas=1)
    for logical, _, _ in BLOBS:
        for window in ([0, 1], [2, 3]):
            sim.run_process(front.fetch_chunks(logical, "p", window))
    streams = 0
    for name, node in front.nodes.items():
        for _tenant, logical, tag in node.ada.prefetcher._streams:
            assert front.holders(logical, tag) == [name]
            streams += 1
    assert streams == len(BLOBS)


def test_holders_are_written_once():
    """A key's holder list is fixed at its first store: appends, a kill
    of the primary and the failover read after it never move it."""
    sim, front = build_cluster(appends=False)

    def holder_lists():
        return {
            (logical, tag): front.holders(logical, tag)
            for logical, _, _ in BLOBS
            for tag in front.all_tags(logical)
        }

    first = holder_lists()
    for logical, _, chunks in BLOBS:
        for blob in chunks[1:4]:
            sim.run_process(front.ingest_append(logical, blob))
    logical = BLOBS[0][0]
    reference = sim.run_process(front.fetch(logical, "p")).data
    front.kill_node(front.holders(logical, "p")[0])
    assert sim.run_process(front.fetch(logical, "p")).data == reference
    assert front.metrics.value("cluster_failovers_total") == 1
    assert holder_lists() == first
    for (logical, tag), holders in first.items():
        assert holders == front.targets(logical, tag)


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

"""A dataset's subsets live on its active tag's holders.

The paper keeps every tagged subset of a dataset in one PLFS container;
the sharded front keeps them on one holder set.  Every tag is placed by
the ring key of the first replicated tag (``p``): ``p`` and ``lod:p``
on its R holders, MISC and its sibling on the primary.  So an append
costs one span write per replica (plus its index line's request), not
one per ``(tag, holder)``, and
a LOD read of ``p`` has as many replicas to fail over to as ``p``.
"""

import hashlib

import pytest

from repro.cluster.shard import ShardNode, ShardedADA
from repro.core.lod import lod_tag
from repro.fs.localfs import LocalFS
from repro.harness.benchkit import chunked_catalog
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD

pytestmark = pytest.mark.cluster

BLOBS = chunked_catalog(
    ndatasets=4, natoms=200, nchunks=3, frames_per_chunk=4, seed=5
)
REPLICAS = 2
WINDOW_TAGS = ["lod:m", "lod:p", "m", "p"]


def _node(sim, name, metrics):
    return ShardNode.build(
        sim, name,
        backends={"hdd": LocalFS(sim, WD_1TB_HDD, name=f"{name}:hdd")},
        metrics=metrics, lod_precision=12.5,
    )


def _cluster(nnodes=4, appends=True, **kwargs):
    """A one-disk-per-node cluster holding every dataset of ``BLOBS``
    (only its first chunk when ``appends`` is false)."""
    sim = Simulator()
    metrics = MetricsRegistry()
    nodes = [_node(sim, f"node{i}", metrics) for i in range(nnodes)]
    front = ShardedADA(
        sim, nodes, replicas=REPLICAS, metrics=metrics, **kwargs
    )
    for logical, pdb_text, chunks in BLOBS:
        sim.run_process(front.ingest(logical, pdb_text, chunks[0]))
        for blob in chunks[1:] if appends else ():
            sim.run_process(front.ingest_append(logical, blob))
    return sim, front


def _assert_colocated(front):
    for logical, _, _ in BLOBS:
        assert front.all_tags(logical) == WINDOW_TAGS
        for tag in front.tags(logical):
            assert front.holders(logical, lod_tag(tag)) == front.holders(
                logical, tag
            )
        active = front.holders(logical, "p")
        assert len(active) == REPLICAS
        assert front.holders(logical, "m") == active[:1]


def _digests(sim, front):
    return {
        (logical, tag, precision): hashlib.sha256(
            sim.run_process(front.fetch(logical, tag, precision=precision)).data
        ).hexdigest()
        for logical, _, _ in BLOBS
        for tag in front.tags(logical)
        for precision in ("full", "lod")
    }


def test_every_sibling_shares_its_base_holders_and_misc_the_primary():
    _, front = _cluster()
    _assert_colocated(front)
    # Some dataset's primary is not another's: placement still spreads.
    assert len({front.holders(lg, "p")[0] for lg, _, _ in BLOBS}) > 1


def test_without_replicated_tags_each_sibling_follows_its_base():
    _, front = _cluster(replicated_tags=())
    for logical, _, _ in BLOBS:
        for tag in front.tags(logical):
            held = front.holders(logical, tag)
            assert len(held) == 1
            assert front.holders(logical, lod_tag(tag)) == held


def test_an_append_costs_one_device_write_per_replica():
    sim, front = _cluster(appends=False)
    for logical, _, chunks in BLOBS:
        before = front.metrics.query("device_ops_total", op="write")
        sim.run_process(front.ingest_append(logical, chunks[1]))
        after = front.metrics.query("device_ops_total", op="write")
        assert front.all_tags(logical) == WINDOW_TAGS
        writes = sum(after.values()) - sum(before.values())
        # Per replica: one span request, then one index line request.
        assert writes == 2 * REPLICAS, logical


def test_lod_read_fails_over_when_its_first_holder_dies():
    sim, front = _cluster()
    logical = BLOBS[0][0]
    reference = sim.run_process(front.fetch(logical, "p", precision="lod"))
    front.kill_node(front.holders(logical, lod_tag("p"))[0])
    got = sim.run_process(front.fetch(logical, "p", precision="lod"))
    assert got.tier == "lod"
    assert got.data == reference.data
    assert front.metrics.value("cluster_failovers_total") >= 1


def test_rebalance_keeps_datasets_colocated_and_bytes_unchanged():
    sim, front = _cluster()
    reference = _digests(sim, front)
    joiner = _node(sim, "node4", front.metrics)
    added = sim.run_process(front.add_node(joiner))
    assert added["keys_moved"] > 0
    _assert_colocated(front)
    assert _digests(sim, front) == reference
    # node1 is a primary: draining it moves MISC along with ``p``.
    assert "node1" in {front.holders(lg, "p")[0] for lg, _, _ in BLOBS}
    drained = sim.run_process(front.drain_node("node1"))
    assert drained["keys_moved"] > 0
    assert "node1" not in front.nodes
    _assert_colocated(front)
    assert _digests(sim, front) == reference

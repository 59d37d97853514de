"""Precision-selective serving through the sharded front.

The ``lod:`` sibling is a routed stream of its own on its base's
holders, so the front must resolve the tier before routing, and the
node must agree.  The usual sharding contract still holds per tier:
bytes through N nodes are bit-identical to the same read through one
plain middleware.
"""

import numpy as np
import pytest

from repro.cluster.shard import ShardNode, ShardedADA
from repro.core import ADA
from repro.core.dataplane import DataPlane
from repro.core.lod import lod_max_error, lod_tag
from repro.errors import ConfigurationError
from repro.fs.localfs import LocalFS
from repro.harness.benchkit import chunked_catalog
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB

pytestmark = [pytest.mark.cluster, pytest.mark.lod]

BLOBS = chunked_catalog(
    ndatasets=2, natoms=300, nchunks=4, frames_per_chunk=4, seed=13
)
LOGICAL = BLOBS[0][0]


def _ingest(sim, front):
    for logical, pdb_text, chunks in BLOBS:
        sim.run_process(front.ingest(logical, pdb_text, chunks[0]))
        for blob in chunks[1:]:
            sim.run_process(front.ingest_append(logical, blob))


def _cluster(nnodes=3, replicas=1, lod_precision=12.5):
    sim = Simulator()
    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim,
            f"node{i}",
            backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name=f"node{i}:ssd")},
            metrics=metrics,
            lod_precision=lod_precision,
        )
        for i in range(nnodes)
    ]
    front = ShardedADA(sim, nodes, replicas=replicas, metrics=metrics)
    _ingest(sim, front)
    return sim, front


def _single(lod_precision=12.5):
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        lod_precision=lod_precision,
    )
    _ingest(sim, ada)
    return sim, ada


def test_lod_siblings_are_placed_and_visible():
    _, front = _cluster()
    for logical, _, _ in BLOBS:
        assert front.has_lod(logical)
        for tag in front.tags(logical):
            assert front.has_lod(logical, tag)
            assert front.holders(logical, lod_tag(tag))


def test_lod_reads_bit_identical_to_single_middleware():
    sim1, single = _single()
    simn, front = _cluster()
    for logical, _, _ in BLOBS:
        for tag in single.tags(logical):
            ref = sim1.run_process(
                single.fetch(logical, tag, precision="lod")
            )
            got = simn.run_process(front.fetch(logical, tag, precision="lod"))
            assert got.data == ref.data, f"{logical}#{tag}"
            assert got.tier == "lod" and got.max_error == ref.max_error
    assert front.metrics.value("cluster_lod_routed_total") > 0
    assert front.metrics.value("cluster_lod_fallback_total") == 0


def test_lod_fetch_chunks_routes_and_annotates():
    simn, front = _cluster()
    objs = simn.run_process(
        front.fetch_chunks(LOGICAL, "p", [0, 2], precision="lod")
    )
    assert all(o.tier == "lod" and o.max_error is not None for o in objs)

    sim1, single = _single()
    ref = sim1.run_process(
        single.fetch_chunks(LOGICAL, "p", [0, 2], precision="lod")
    )
    assert [o.data for o in objs] == [o.data for o in ref]


def test_fetch_merged_degrades_as_a_whole():
    sim1, single = _single()
    simn, front = _cluster()
    exact = sim1.run_process(single.fetch_merged(LOGICAL))
    coarse = simn.run_process(front.fetch_merged(LOGICAL, precision="lod"))
    assert coarse.tier == "lod" and coarse.max_error is not None
    assert np.abs(coarse.coords - exact.coords).max() <= coarse.max_error
    full = simn.run_process(front.fetch_merged(LOGICAL))
    assert full.tier == "full" and full.max_error is None
    assert np.array_equal(full.coords, exact.coords)


def test_lod_request_without_layer_falls_back():
    simn, front = _cluster(lod_precision=None)
    obj = simn.run_process(front.fetch(LOGICAL, "p", precision="lod"))
    assert obj.tier == "full" and obj.max_error is None
    assert front.metrics.value("cluster_lod_fallback_total") == 1
    assert front.metrics.value("cluster_lod_routed_total") == 0
    assert not front.has_lod(LOGICAL)


def test_unknown_precision_rejected_before_routing():
    simn, front = _cluster()
    for bad in ("approx", "auto"):
        with pytest.raises(ConfigurationError, match="unknown precision"):
            simn.run_process(front.fetch(LOGICAL, "p", precision=bad))


def _retune(deployment, lod_precision):
    """Operator re-tunes the coarse grid for *future* ingests."""
    deployment.preprocessor.lod_precision = lod_precision
    for node in getattr(deployment, "nodes", {}).values():
        node.ada.lod_precision = lod_precision


def test_front_pins_the_lod_bound_at_ingest_like_a_single_middleware():
    """Data encoded at 12.5 keeps advertising 12.5's bound after the
    deployment is re-tuned -- through every read surface of the front."""
    sim1, single = _single()
    simn, front = _cluster()
    _retune(single, 50.0)
    _retune(front, 50.0)
    pinned = lod_max_error(12.5)
    assert single.lod_bound(LOGICAL) == front.lod_bound(LOGICAL) == pinned

    ref = sim1.run_process(single.fetch(LOGICAL, "p", precision="lod"))
    got = simn.run_process(front.fetch(LOGICAL, "p", precision="lod"))
    assert got.max_error == ref.max_error == pinned
    chunks = simn.run_process(
        front.fetch_chunks(LOGICAL, "p", [0, 1], precision="lod")
    )
    assert [o.max_error for o in chunks] == [pinned, pinned]
    ref_merged = sim1.run_process(
        single.fetch_merged(LOGICAL, precision="lod")
    )
    merged = simn.run_process(front.fetch_merged(LOGICAL, precision="lod"))
    assert merged.max_error == ref_merged.max_error == pinned


@pytest.mark.parametrize("build", [_single, _cluster], ids=["ada", "sharded"])
def test_remove_forgets_the_pinned_bound_and_routing_state(build):
    """remove -> re-tune -> re-ingest the same name must advertise the
    bound of the *new* encoding, never the stale one."""
    sim, deployment = build()
    logical, pdb_text, chunks = BLOBS[0]
    deployment.remove(logical)

    _retune(deployment, 3.0)
    sim.run_process(deployment.ingest(logical, pdb_text, chunks[0]))
    exact = sim.run_process(deployment.fetch_merged(logical))
    coarse = sim.run_process(deployment.fetch_merged(logical, precision="lod"))
    measured = float(np.abs(coarse.coords - exact.coords).max())
    assert coarse.max_error == lod_max_error(3.0)
    assert measured > lod_max_error(12.5)  # the stale bound would be a lie
    assert coarse.max_error >= measured


def test_remove_drops_the_datasets_affinity_and_promotion_entries():
    sim, front = _cluster(replicas=2)
    front.kill_node(front.holders(LOGICAL, "p")[0])
    sim.run_process(front.fetch(LOGICAL, "p"))  # promoted to the replica
    assert any(key[0] == LOGICAL for key in front._affinity)
    assert any(key[0] == LOGICAL for key in front._promoted)
    front.remove(LOGICAL)
    assert not any(key[0] == LOGICAL for key in front._affinity)
    assert not any(key[0] == LOGICAL for key in front._promoted)
    other = BLOBS[1][0]
    sim.run_process(front.fetch(other, "p"))  # other datasets unaffected


def test_a_sharded_read_resolves_its_tier_once(monkeypatch):
    """The front resolves the tier and hands nodes the resolved tag:
    no node ever re-resolves a request the front already decided."""
    sim, front = _cluster()
    resolved = []
    resolve = DataPlane._resolve_tier

    def counted(self, logical, tag, precision):
        resolved.append(self)
        return resolve(self, logical, tag, precision)

    monkeypatch.setattr(DataPlane, "_resolve_tier", counted)
    for precision in ("lod", "full"):
        resolved.clear()
        sim.run_process(front.fetch(LOGICAL, "p", precision=precision))
        assert resolved == [front], precision
    resolved.clear()
    sim.run_process(front.fetch_chunks(LOGICAL, "p", [0, 2], precision="lod"))
    assert resolved == [front]
    resolved.clear()
    sim.run_process(front.fetch_all(LOGICAL))
    assert all(who is front for who in resolved), "a node re-resolved"
    assert len(resolved) <= len(front.tags(LOGICAL))

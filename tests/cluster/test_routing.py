"""Read routing around a holder that is busy writing.

Appends reach every holder outside the router, so a holder's ``inflight``
never counts them.  ``ShardedADA._select`` reads each holder's device
ledgers instead: when the holder a stream would use has a write queued,
the read moves to the live holder with strictly less queued device time.
These are hand-built two-holder schedules: a write queued straight on one
holder's device, then a routed read.
"""

import pytest

from repro.cluster.shard import AFFINITY_SLACK, ShardNode, ShardedADA
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.harness.benchkit import chunked_catalog
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.units import MB

pytestmark = pytest.mark.cluster

BLOBS = chunked_catalog(
    ndatasets=2, natoms=300, nchunks=6, frames_per_chunk=4, seed=5
)
LOGICAL = BLOBS[0][0]
KEY = (LOGICAL, "p")


def build_pair(**kwargs):
    """Two nodes holding every replicated subset, catalogue ingested."""
    sim = Simulator()
    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim, f"node{i}",
            backends={"hdd": LocalFS(sim, WD_1TB_HDD, name=f"node{i}:hdd")},
            metrics=metrics,
            block_cache=BlockCache(sim, l1_capacity_bytes=1 << 20),
        )
        for i in range(2)
    ]
    front = ShardedADA(sim, nodes, replicas=2, metrics=metrics, **kwargs)
    for logical, pdb_text, chunks in BLOBS:
        sim.run_process(front.ingest(logical, pdb_text, chunks[0]))
        for blob in chunks[1:]:
            sim.run_process(front.ingest_append(logical, blob))
    return sim, front


def device(front, name):
    return front.nodes[name].ada.plfs.backends["hdd"].device


def queue(sim, front, name, op, nbytes):
    """Put one request on ``name``'s device, queued by the time this returns."""
    dev = device(front, name)
    sim.process(getattr(dev, op)(nbytes))
    sim.run(until=sim.now)
    return dev


def read(sim, front, chunk):
    """One routed read of the stream; returns the holder that served it."""
    before = {n: node.served_bytes for n, node in front.nodes.items()}
    sim.run_process(front.fetch_chunks(LOGICAL, "p", [chunk]))
    served = [n for n, node in front.nodes.items() if node.served_bytes > before[n]]
    assert len(served) == 1
    return served[0]


def sticky_stream(sim, front):
    """Open the stream with one read; returns (sticky holder, the other)."""
    sticky = read(sim, front, 0)
    assert front._affinity[KEY] == sticky
    (other,) = [n for n in front.holders(*KEY) if n != sticky]
    return sticky, other


def test_a_sticky_holder_with_a_queued_append_loses_the_stream():
    sim, front = build_pair()
    sticky, other = sticky_stream(sim, front)
    metrics = front.metrics
    assert metrics.value("shard_queued_device_seconds", shard=sticky) == 0
    dev = queue(sim, front, sticky, "write", 4 * MB)
    assert dev.queued_writes == 1
    assert metrics.value(
        "shard_queued_device_seconds", shard=sticky
    ) == dev.queued_ns / 1e9 > 0
    assert front.node_loads()[sticky]["queued_device_s"] == dev.queued_ns / 1e9
    assert metrics.value("cluster_read_steers_total") == 0

    assert read(sim, front, 1) == other
    assert front._affinity[KEY] == other
    assert metrics.value("cluster_read_steers_total") == 1
    # Quiescent again: the ledgers are back at zero, and the stream stays
    # where the steer put it.
    assert dev.queued_ns == dev.queued_writes == 0
    assert read(sim, front, 2) == other
    assert metrics.value("cluster_read_steers_total") == 1


def test_a_writing_holder_whose_queued_time_is_not_larger_keeps_the_stream():
    sim, front = build_pair()
    sticky, other = sticky_stream(sim, front)
    # The other holder is busier, with reads: the writer keeps the stream.
    queue(sim, front, sticky, "write", 1 * MB)
    queue(sim, front, other, "read", 8 * MB)
    assert device(front, sticky).queued_ns < device(front, other).queued_ns
    assert read(sim, front, 1) == sticky
    # Equal queued time on both holders is not larger either.
    queue(sim, front, sticky, "write", 2 * MB)
    queue(sim, front, other, "write", 2 * MB)
    assert device(front, sticky).queued_ns == device(front, other).queued_ns
    assert read(sim, front, 2) == sticky
    assert front._affinity[KEY] == sticky
    assert front.metrics.value("cluster_read_steers_total") == 0


def test_a_dead_holder_with_no_backlog_is_never_chosen():
    sim, front = build_pair()
    sticky, other = sticky_stream(sim, front)
    front.kill_node(other)
    queue(sim, front, sticky, "write", 4 * MB)
    assert device(front, other).queued_ns == 0
    assert read(sim, front, 1) == sticky
    assert front._affinity[KEY] == sticky
    assert front.metrics.value("cluster_read_steers_total") == 0
    # Nor when the stream's sticky holder is the one that died.
    front.nodes[other].revive()
    front._affinity[KEY] = other
    front.kill_node(other)
    queue(sim, front, sticky, "write", 4 * MB)
    assert read(sim, front, 2) == sticky


def _old_select(front, logical, tag, candidates):
    """The rule before device ledgers: ``(choice, affinity after)``."""
    def load(name):
        node = front.nodes[name]
        return (node.inflight, node.served_bytes, name)

    best = min(candidates, key=load)
    sticky = front._affinity.get((logical, tag))
    if sticky in candidates:
        snode, bnode = front.nodes[sticky], front.nodes[best]
        if (
            snode.inflight <= bnode.inflight + AFFINITY_SLACK
            and snode.served_bytes
            <= bnode.served_bytes + front.affinity_bytes_slack
        ):
            return sticky, sticky
    return best, best


def test_a_read_only_schedule_routes_exactly_as_the_old_rule():
    # A small byte slack, so streams switch holders during the schedule.
    sim, front = build_pair(affinity_bytes_slack=8 * 1024)
    decisions = []
    select = front._select

    def checked(logical, tag, candidates):
        want = _old_select(front, logical, tag, candidates)
        got = select(logical, tag, candidates)
        assert (got, front._affinity[(logical, tag)]) == want
        decisions.append((logical, tag, got))
        return got

    front._select = checked

    def reader(offset):
        for step in range(12):
            logical = BLOBS[(offset + step) % 2][0]
            chunk = (offset + 2 * step) % 6
            yield from front.fetch_chunks(logical, "p", [chunk, (chunk + 1) % 6])

    for offset in range(4):
        sim.process(reader(offset))
    sim.run()
    assert len(decisions) == 48
    assert front.metrics.value("cluster_read_steers_total") == 0
    # The schedule exercises both holders and switches streams between
    # them, so the comparison above is not vacuous.
    assert {got for _, _, got in decisions} == {"node0", "node1"}
    by_stream = {}
    for logical, tag, got in decisions:
        by_stream.setdefault((logical, tag), []).append(got)
    assert any(len(set(route)) > 1 for route in by_stream.values())

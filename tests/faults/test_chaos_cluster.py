"""Chaos properties over the sharded middleware.

A node fail-stops mid-playback -- either killed out-of-band or by a
permanent injection at its ``shard:<node>`` fault site -- and the
properties are:

* **bytes survive** -- every replicated ``p`` read after the kill is
  bit-identical to the fault-free run, served by a surviving replica;
* **losses are loud** -- unreplicated tags whose only holder died drop
  out of ``fetch_all`` with a :class:`DegradedReadWarning` each, and the
  front's accounting (``degraded`` list, counters) matches the warnings
  one for one;
* **transients are absorbed** -- transient injections at shard sites
  retry on the *same* node and never promote a replica.
"""

import warnings

import pytest

from repro.cluster.shard import ShardNode, ShardedADA
from repro.errors import DegradedReadWarning, NodeDownError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog, run_traffic
from repro.obs.metrics import MetricsRegistry
from repro.serve import DatasetRef, ServeFront, TrafficConfig
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD

pytestmark = [pytest.mark.chaos, pytest.mark.cluster]

_WORKLOAD = dict(ndatasets=6, natoms=200, nchunks=6, frames_per_chunk=4, seed=9)
_NNODES = 4
_NTENANTS = 4
_REQUESTS = 12


def _blobs():
    return chunked_catalog(
        _WORKLOAD["ndatasets"], _WORKLOAD["natoms"], _WORKLOAD["nchunks"],
        _WORKLOAD["frames_per_chunk"], _WORKLOAD["seed"],
    )


def _build(blobs, fault_plan=None, retry_policy=None):
    sim = Simulator()
    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim,
            f"node{i}",
            backends={"hdd": LocalFS(sim, WD_1TB_HDD, name=f"node{i}:hdd")},
            metrics=metrics,
            block_cache=BlockCache(sim, l1_capacity_bytes=128 * 1024),
            prefetch=True,
        )
        for i in range(_NNODES)
    ]
    front = ShardedADA(
        sim,
        nodes,
        replicas=2,
        metrics=metrics,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    for logical, pdb_text, chunks in blobs:
        sim.run_process(front.ingest(logical, pdb_text, chunks[0]))
        for blob in chunks[1:]:
            sim.run_process(front.ingest_append(logical, blob))
    return sim, front


@pytest.fixture(scope="module")
def playback_runs():
    """A clean serving run and one with a mid-playback node kill."""
    blobs = _blobs()
    catalog = [
        DatasetRef(f"traj{i}.xtc", PLAYBACK_TAG, _WORKLOAD["nchunks"])
        for i in range(_WORKLOAD["ndatasets"])
    ]
    config = TrafficConfig(
        mode="closed", requests_per_tenant=_REQUESTS, window_chunks=3,
        zipf_s=1.1, seed=_WORKLOAD["seed"],
    )
    tenants = [f"t{i}" for i in range(_NTENANTS)]

    def serve(front):
        serve_front = ServeFront(front, concurrency=_NTENANTS)
        for name in tenants:
            serve_front.register(name, max_inflight=4)
        return run_traffic(serve_front, tenants, catalog, config)

    _, clean_front = _build(blobs)
    clean = serve(clean_front)

    chaos_sim, chaos_front = _build(blobs)
    victim = chaos_front.holders(catalog[0].logical, PLAYBACK_TAG)[0]
    kill_t = float(clean["elapsed_s"]) * 0.4

    def assassin():
        yield chaos_sim.timeout(kill_t)
        chaos_front.kill_node(victim)
        return None

    chaos_sim.process(assassin(), name="chaos:assassin")
    chaos = serve(chaos_front)
    return {
        "tenants": tenants,
        "clean": clean,
        "chaos": chaos,
        "chaos_front": chaos_front,
        "victim": victim,
        "kill_t": kill_t,
    }


def test_kill_mid_playback_keeps_p_frames_bit_identical(playback_runs):
    clean, chaos = playback_runs["clean"], playback_runs["chaos"]
    for name in playback_runs["tenants"]:
        assert (
            chaos["per_tenant"][name]["digest"]
            == clean["per_tenant"][name]["digest"]
        ), f"{name} read different bytes after the node kill"
    assert chaos["completed"] == clean["completed"]
    assert chaos["failed"] == 0


def test_kill_actually_disrupted_the_run(playback_runs):
    front = playback_runs["chaos_front"]
    victim = playback_runs["victim"]
    assert not front.nodes[victim].alive
    assert front.metrics.value("cluster_node_kills_total") == 1
    failovers = front.metrics.value("cluster_failovers_total")
    assert failovers > 0, "no read was ever promoted"
    events = front.events
    kills = [e for e in events if e["event"] == "kill"]
    assert len(kills) == 1 and kills[0]["node"] == victim
    promotions = [
        e
        for e in events
        if e["event"] == "failover" and e["t"] >= kills[0]["t"]
    ]
    assert promotions, "timeline records no replica promotion"
    assert all(e["from"] == victim for e in promotions)
    # Recovery is immediate in sim time terms: the first promoted read
    # lands within the same playback, not after a manual intervention.
    recovery = promotions[0]["t"] - kills[0]["t"]
    assert 0 <= recovery < float(playback_runs["chaos"]["elapsed_s"])


def test_injected_node_crash_fails_over():
    """A permanent injection at a shard site kills the node, not the read."""
    blobs = _blobs()
    logical = blobs[0][0]
    _, reference_front = _build(blobs)
    reference = reference_front.sim.run_process(
        reference_front.fetch(logical, PLAYBACK_TAG)
    ).data

    # Placement is deterministic (md5 ring, same node names), so the
    # reference deployment tells us the victim before we build the
    # faulty one with its site armed.
    primary = reference_front.holders(logical, PLAYBACK_TAG)[0]
    plan = FaultPlan(
        seed=11, sites={f"shard:{primary}": FaultSpec(permanent_rate=1.0)}
    )
    sim, front = _build(blobs, fault_plan=plan)
    assert front.holders(logical, PLAYBACK_TAG)[0] == primary
    # Aim the first read at the primary (selection would otherwise be
    # free to start on the replica and never touch the armed site).
    front._affinity[(logical, PLAYBACK_TAG)] = primary
    got = sim.run_process(front.fetch(logical, PLAYBACK_TAG))
    assert got.data == reference
    assert plan.total() > 0, "the injection never fired"
    assert not front.nodes[primary].alive, "permanent fault must fail-stop"
    assert front.metrics.value("cluster_failovers_total") >= 1
    assert front.fault_plan is plan


def test_transient_shard_faults_retry_without_promotion():
    blobs = _blobs()
    logical = blobs[0][0]
    plan = FaultPlan(
        seed=13,
        sites={"shard:*": FaultSpec(transient_rate=0.3)},
    )
    sim, front = _build(
        blobs, fault_plan=plan, retry_policy=RetryPolicy(max_retries=6)
    )
    _, reference_front = _build(blobs)
    for logical, _, _ in blobs:
        ref = reference_front.sim.run_process(
            reference_front.fetch(logical, PLAYBACK_TAG)
        ).data
        assert sim.run_process(front.fetch(logical, PLAYBACK_TAG)).data == ref
    assert plan.total() > 0, "chaos run injected nothing"
    retry = front.metrics.query("retry_", shard="front")
    assert retry['retry_transient_faults_total{shard="front"}'] > 0
    assert retry['retry_retries_total{shard="front"}'] > 0
    # Transients are same-node affairs: nothing was killed or promoted.
    assert front.metrics.value("cluster_node_kills_total") == 0
    assert all(node.alive for node in front.nodes.values())


def test_degraded_read_accounting_matches_warnings():
    blobs = _blobs()
    sim, front = _build(blobs)
    # Kill one node; datasets whose unreplicated tags lived only there
    # must degrade, and every degradation must be warned AND recorded.
    victim = "node1"
    front.kill_node(victim)
    lost_keys = [
        (logical, tag)
        for (logical, tag), holders in front._placement.items()
        if holders == [victim]
    ]
    assert lost_keys, "pick a different victim: node1 held nothing alone"
    warned = 0
    for logical, _, _ in blobs:
        tags = front.tags(logical)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            subsets = sim.run_process(front.fetch_all(logical))
        hits = [
            w for w in caught if isinstance(w.message, DegradedReadWarning)
        ]
        warned += len(hits)
        lost_here = [key for key in lost_keys if key[0] == logical]
        assert len(hits) == len(lost_here)
        assert PLAYBACK_TAG in subsets  # p always survives (replicated)
        for _, tag in lost_here:
            assert tag not in subsets
        assert len(subsets) == len(tags) - len(lost_here)
    assert warned == len(lost_keys)
    assert len(front.degraded) == warned
    assert front.metrics.value("cluster_degraded_reads_total") == warned


def _kill_primary(blobs):
    """A deployment whose first dataset lost its primary (the node that
    also holds its MISC), plus that dataset's clean ``p`` bytes."""
    sim, front = _build(blobs)
    logical = blobs[0][0]
    clean = sim.run_process(front.fetch(logical, PLAYBACK_TAG)).data
    front.kill_node(front.holders(logical, PLAYBACK_TAG)[0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        subsets = sim.run_process(front.fetch_all(logical))
    degraded = [w for w in caught if isinstance(w.message, DegradedReadWarning)]
    return front, logical, clean, subsets, degraded


def test_replicated_tag_never_degrades_while_one_replica_lives():
    blobs = _blobs()
    _, logical, clean, subsets, degraded = _kill_primary(blobs)
    assert subsets[PLAYBACK_TAG].data == clean
    named = [w for w in degraded if f"subset {PLAYBACK_TAG!r}" in str(w.message)]
    assert not named


def test_losing_a_datasets_primary_degrades_its_misc_loudly():
    """MISC lives on the primary only: losing that node drops every
    unreplicated tag from ``fetch_all``, one warning and one record each."""
    blobs = _blobs()
    front, logical, _, subsets, degraded = _kill_primary(blobs)
    misc = [t for t in front.tags(logical) if t != PLAYBACK_TAG]
    assert misc, "the workload must store some MISC"
    assert sorted(subsets) == [PLAYBACK_TAG]
    assert len(degraded) == len(misc)
    for tag in misc:
        assert [w for w in degraded if f"subset {tag!r}" in str(w.message)]
    assert sorted(t for lg, t, _ in front.degraded if lg == logical) == misc
    assert front.metrics.value("cluster_degraded_reads_total") == len(misc)


def test_losing_every_replica_is_an_error_not_a_degradation():
    blobs = _blobs()
    sim, front = _build(blobs)
    logical = blobs[0][0]
    for name in front.holders(logical, PLAYBACK_TAG):
        front.kill_node(name)
    with pytest.raises(NodeDownError):
        sim.run_process(front.fetch_all(logical))

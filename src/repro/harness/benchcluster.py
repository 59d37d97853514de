"""Sharded-middleware scaling benchmark: read throughput across N nodes.

``run_cluster_bench`` stands up the same Zipf-hot serving workload as
the serve bench, but behind :class:`~repro.cluster.shard.ShardedADA`
fronting ``N`` single-backend middleware nodes, and sweeps ``N`` over
``node_counts`` (default 1, 2, 4, 8):

* every sweep ingests the identical catalog and drives the identical
  closed-loop tenant traffic, so wall-clock ratios *are* the scaling
  curve: with the per-node caches kept deliberately tiny the workload
  is device-bound, and N nodes means N independent device queues;
* per-tenant response digests must be bit-identical across every node
  count -- shard layout is an implementation detail, not a data path;
* a chaos pass re-runs the widest sweep and fail-stops the primary
  holder of the hottest dataset mid-run: playback must complete with
  bit-identical digests (reads fail over to the surviving replica) and
  the time from kill to first successful failover is reported as
  ``recovery_s``.

All timings are **simulated** seconds, so the record is bit-reproducible
and the CI smoke test can gate the floors without flaking.  The record
lands at ``benchmarks/results/BENCH_cluster.json`` (``python -m repro
bench-cluster --json``); ``FLOORS`` holds the tunable floors and
``GATE`` every row ``pass`` holds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.shard import ShardNode, ShardedADA
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.harness.benchkit import (
    PLAYBACK_TAG,
    Row,
    chunked_catalog,
    gate_pass,
    ingest_chunks,
    run_traffic,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve import DatasetRef, ServeFront, TrafficConfig
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.units import KiB, MiB

__all__ = ["FLOORS", "GATE", "run_cluster_bench"]

SCHEMA_VERSION = 1

#: Tunable floors; the record carries them as ``floors``.
FLOORS = {
    "scaling_widest": 3.0,  # widest sweep >= 3x the 1-node throughput
    "imbalance_max": 0.25,  # (max - mean) / mean served bytes per node
}

#: What ``pass`` requires.  The chaos pass must complete every request a
#: clean sweep does (the 1-node baseline is always swept), with the clean
#: run's bytes, after at least one failover it timed.
GATE = [
    Row("all_completed", "==", True),
    Row("digests_consistent_across_node_counts", "==", True),
    Row("scaling_widest", ">=", "floors.scaling_widest"),
    Row("imbalance_widest", "<=", "floors.imbalance_max"),
    Row("chaos.digests_match_clean_run", "==", True),
    Row("chaos.completed", "==", "sweeps.1.completed"),
    Row("chaos.failed", "==", 0),
    Row("chaos.failovers", ">", 0),
    Row("chaos.recovery_s", ">=", 0.0),
]


def _build_cluster_front(
    blobs: List[Tuple[str, str, List[bytes]]],
    nnodes: int,
    ntenants: int,
    concurrency: int,
    l1_capacity_bytes: float,
    max_inflight: int,
    replicas: int,
    affinity_bytes_slack: int,
) -> ServeFront:
    """Fresh N-node deployment: ingest the catalog, register tenants.

    Each node owns one HDD backend and a deliberately small private
    block cache, so aggregate throughput tracks the number of device
    queues rather than cache capacity.
    """
    sim = Simulator()
    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim,
            f"node{index}",
            backends={
                "hdd": LocalFS(sim, WD_1TB_HDD, name=f"node{index}:hdd")
            },
            metrics=metrics,
            block_cache=BlockCache(sim, l1_capacity_bytes=l1_capacity_bytes),
            prefetch=True,
        )
        for index in range(nnodes)
    ]
    sharded = ShardedADA(
        sim,
        nodes,
        replicas=min(replicas, nnodes),
        metrics=metrics,
        affinity_bytes_slack=affinity_bytes_slack,
    )
    for logical, pdb_text, chunks in blobs:
        ingest_chunks(sharded, logical, pdb_text, chunks)
    front = ServeFront(sharded, concurrency=concurrency)
    for index in range(ntenants):
        # No cache_quota_bytes: the cluster front has no front-side cache
        # to partition -- each shard's private cache is its own.
        front.register(f"t{index}", max_inflight=max_inflight)
    return front


def _imbalance(loads: Dict[str, Dict[str, float]]) -> float:
    """Relative deviation of the hottest node from the mean served bytes."""
    served = [float(entry["served_bytes"]) for entry in loads.values()]
    if not served or not any(served):
        return 0.0
    mean = sum(served) / len(served)
    return (max(served) - mean) / mean


def _digest_map(traffic: Dict[str, object]) -> Dict[str, str]:
    return {
        name: entry["digest"]
        for name, entry in traffic["per_tenant"].items()
    }


# Zipf rank-1 traffic concentrates on one key, and that key's volume can
# only spread across its replica set: R=2 leaves the two holders of the
# hottest dataset well above the per-node mean no matter how reads are
# balanced *within* the set, so the bench runs the hot tag at R=3.
def run_cluster_bench(
    node_counts: Sequence[int] = (1, 2, 4, 8),
    ntenants: int = 12,
    ndatasets: int = 24,
    natoms: int = 400,
    nchunks: int = 8,
    frames_per_chunk: int = 4,
    window_chunks: int = 4,
    requests_per_tenant: int = 24,
    concurrency: int = 32,
    max_inflight: int = 4,
    l1_capacity_kib: int = 64,
    replicas: int = 3,
    zipf_s: float = 1.1,
    seed: int = 7,
    kill_at_fraction: float = 0.35,
) -> dict:
    """Measure read scale-out across ``node_counts``; returns the record."""
    counts = sorted(set(int(n) for n in node_counts))
    if not counts or counts[0] < 1:
        raise ValueError("node_counts must be positive integers")
    if counts[0] != 1:
        raise ValueError("node_counts must include 1 (the scaling baseline)")
    blobs = chunked_catalog(ndatasets, natoms, nchunks, frames_per_chunk, seed)
    catalog = [
        DatasetRef(logical=logical, tag=PLAYBACK_TAG, nchunks=nchunks)
        for logical, _, _ in blobs
    ]
    # Replica stickiness should yield after a couple of playback windows,
    # whatever the workload size -- an absolute byte slack that dwarfs a
    # small catalog pins Zipf-hot streams to one replica forever.
    window_bytes = (
        max(len(chunk) for _, _, chunks in blobs for chunk in chunks)
        * window_chunks
    )
    affinity_bytes_slack = 2 * window_bytes
    tenants = [f"t{index}" for index in range(ntenants)]
    l1_capacity = float(l1_capacity_kib) * KiB
    traffic_config = TrafficConfig(
        mode="closed",
        requests_per_tenant=requests_per_tenant,
        window_chunks=window_chunks,
        zipf_s=zipf_s,
        seed=seed,
    )

    def fresh_front(nnodes: int) -> ServeFront:
        return _build_cluster_front(
            blobs,
            nnodes=nnodes,
            ntenants=ntenants,
            concurrency=concurrency,
            l1_capacity_bytes=l1_capacity,
            max_inflight=max_inflight,
            replicas=replicas,
            affinity_bytes_slack=affinity_bytes_slack,
        )

    sweeps: Dict[str, dict] = {}
    widest = counts[-1]
    widest_front: Optional[ServeFront] = None
    baseline_digests: Optional[Dict[str, str]] = None
    digests_consistent = True
    for nnodes in counts:
        front = fresh_front(nnodes)
        traffic = run_traffic(front, tenants, catalog, traffic_config)
        digests = _digest_map(traffic)
        if baseline_digests is None:
            baseline_digests = digests
        elif digests != baseline_digests:
            digests_consistent = False
        sharded = front.ada
        served_total = sum(
            entry["served_bytes"]
            for entry in traffic["per_tenant"].values()
        )
        elapsed = float(traffic["elapsed_s"])
        loads = sharded.node_loads()
        sweeps[str(nnodes)] = {
            "nodes": nnodes,
            "elapsed_s": elapsed,
            "p50_s": traffic["p50_s"],
            "p99_s": traffic["p99_s"],
            "completed": traffic["completed"],
            "failed": traffic["failed"],
            "served_bytes": served_total,
            "throughput_bytes_per_s": round(
                served_total / elapsed if elapsed else 0.0, 3
            ),
            "imbalance": round(_imbalance(loads), 4),
            "node_loads": loads,
        }
        if nnodes == widest:
            widest_front = front

    base_elapsed = sweeps[str(counts[0])]["elapsed_s"]
    scaling = {
        key: round(base_elapsed / entry["elapsed_s"], 3)
        if entry["elapsed_s"]
        else 0.0
        for key, entry in sweeps.items()
    }
    widest_key = str(widest)

    # -- chaos pass: fail-stop the hottest primary mid-playback -------------
    kill_t = round(
        float(sweeps[widest_key]["elapsed_s"]) * float(kill_at_fraction), 9
    )
    chaos_front = fresh_front(widest)
    chaos_sharded = chaos_front.ada
    hot = catalog[0].logical  # Zipf rank 0: the hottest dataset
    victim = chaos_sharded.holders(hot, PLAYBACK_TAG)[0]

    def assassin():
        yield chaos_front.sim.timeout(kill_t)
        chaos_sharded.kill_node(victim)
        return None

    chaos_front.sim.process(assassin(), name="chaos:assassin")
    chaos_traffic = run_traffic(
        chaos_front, tenants, catalog, traffic_config
    )
    chaos_match = _digest_map(chaos_traffic) == baseline_digests
    events = list(chaos_sharded.events)
    kill_events = [e for e in events if e["event"] == "kill"]
    failovers = [
        e
        for e in events
        if e["event"] == "failover" and e["t"] >= kill_events[0]["t"]
    ]
    recovery_s = (
        round(failovers[0]["t"] - kill_events[0]["t"], 9)
        if failovers
        else None
    )
    chaos = {
        "nodes": widest,
        "victim": victim,
        "kill_t_s": kill_t,
        "completed": chaos_traffic["completed"],
        "failed": chaos_traffic["failed"],
        "elapsed_s": chaos_traffic["elapsed_s"],
        "failovers": len(failovers),
        "recovery_s": recovery_s,
        "degraded_reads": len(chaos_sharded.degraded),
        "digests_match_clean_run": chaos_match,
    }

    expected = ntenants * requests_per_tenant
    record = {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "node_counts": counts,
            "ntenants": ntenants,
            "ndatasets": ndatasets,
            "natoms": natoms,
            "nchunks": nchunks,
            "frames_per_chunk": frames_per_chunk,
            "window_chunks": window_chunks,
            "requests_per_tenant": requests_per_tenant,
            "concurrency": concurrency,
            "max_inflight": max_inflight,
            "l1_capacity_mb": round(l1_capacity / MiB, 4),
            "replicas": replicas,
            "zipf_s": zipf_s,
            "seed": seed,
        },
        "sweeps": sweeps,
        "scaling_vs_1node": scaling,
        "scaling_widest": scaling[widest_key],
        "imbalance_widest": sweeps[widest_key]["imbalance"],
        "digests_consistent_across_node_counts": digests_consistent,
        "chaos": chaos,
        "floors": dict(FLOORS),
        "all_completed": all(
            entry["completed"] == expected and entry["failed"] == 0
            for entry in sweeps.values()
        ),
    }
    record["pass"] = gate_pass(GATE, record)
    # Full registry snapshot of the widest clean sweep (per-shard labels
    # keep every node's counters distinct in one registry).
    record["metrics"] = widest_front.metrics.to_json()
    return record


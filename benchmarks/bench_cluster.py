"""Sharded-middleware scaling benchmark: the cluster read scale-out gate.

Sweeps the same Zipf serving workload over 1, 2, 4, and 8 middleware
nodes behind :class:`~repro.cluster.shard.ShardedADA` and records the
canonical ``benchmarks/results/BENCH_cluster.json``.  Durations are
simulated seconds, so the floors (widest sweep >= 3x the 1-node
throughput, per-node served-byte imbalance <= 25%) hold
deterministically, as does the chaos pass: a mid-run fail-stop of the
hottest dataset's primary must leave every response digest bit-identical
to the clean run.
"""

from repro.harness.benchcluster import FLOORS


def test_bench_cluster_json_floors(run_gate):
    """Emit BENCH_cluster.json and hold the scaling/imbalance floors."""
    result = run_gate("bench-cluster")
    assert result["schema_version"] == 1
    assert result["all_completed"], "a sweep dropped requests"
    assert result["digests_consistent_across_node_counts"]
    assert result["scaling_widest"] >= FLOORS["scaling_widest"]
    assert result["imbalance_widest"] <= FLOORS["imbalance_max"]
    chaos = result["chaos"]
    assert chaos["digests_match_clean_run"], "failover changed bytes"
    assert chaos["failed"] == 0
    assert chaos["failovers"] > 0, "the kill was never exercised"
    assert chaos["recovery_s"] is not None
    assert result["pass"]

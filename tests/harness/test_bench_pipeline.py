"""Smoke tests for the ``bench-pipeline`` harness and CLI target.

Marked ``bench`` so CI can run ``pytest -m bench`` as a fast gate: the
tiny dataset replays in well under a second of wall time, yet -- because
every duration is *simulated* -- the speedup floors hold exactly as they
do at full size, and the JSON schema is pinned so downstream tooling
reading ``BENCH_pipeline.json`` never silently breaks.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchkit import check_gate
from repro.harness.benchpipeline import FLOORS, GATE, run_pipeline_bench

#: Tiny but floor-clearing: 24 chunks of ~32 KB, four-chunk windows.
_SMALL = dict(natoms=300, nchunks=24, frames_per_chunk=20, window_chunks=4)


@pytest.fixture(scope="module")
def small_result():
    return run_pipeline_bench(**_SMALL)


@pytest.mark.bench
def test_bench_pipeline_schema_stable(small_result):
    result = small_result
    assert result["schema_version"] == 2
    assert set(result) == {
        "schema_version",
        "workload",
        "scenarios",
        "speedup_vs_serial",
        "floors",
        "identical",
        "pass",
        "metrics",
    }
    assert result["metrics"]["schema_version"] == 1
    assert {f["name"] for f in result["metrics"]["families"]} >= {
        "block_cache_hits_total",
        "prefetch_issued_total",
        "retriever_bytes_total",
        "retry_attempts_total",
    }
    assert set(result["workload"]) == {
        "natoms",
        "nchunks",
        "frames_per_chunk",
        "window_chunks",
        "chunk_mb",
        "seed",
    }
    assert set(result["scenarios"]) == {
        "serial",
        "cold_cache",
        "warm_cache",
        "prefetch",
    }
    assert set(result["speedup_vs_serial"]) == {
        "cold_cache",
        "warm_cache",
        "prefetch",
    }
    assert set(result["floors"]) == set(FLOORS)
    for scenario in result["scenarios"].values():
        assert scenario["playback_s"] > 0.0


@pytest.mark.bench
def test_bench_pipeline_holds_floors_at_smoke_size(small_result):
    assert all(v.ok for v in check_gate(GATE, small_result))
    assert small_result["pass"]


@pytest.mark.bench
def test_bench_pipeline_is_deterministic(small_result):
    again = run_pipeline_bench(**_SMALL)
    assert again == small_result


@pytest.mark.bench
def test_cli_bench_pipeline_json(tmp_path, scratch_results):
    code = main(
        [
            "bench-pipeline",
            "--json",
            "--nchunks", "24",
            "--frames-per-chunk", "20",
            "--window-chunks", "4",
        ]
    )
    assert code == 0
    # One canonical copy, under benchmarks/results/ (satellite of the
    # duplicate-artifact fix); -o/--output overrides.
    canonical = tmp_path / "benchmarks" / "results" / "BENCH_pipeline.json"
    assert canonical.exists()
    assert not (tmp_path / "BENCH_pipeline.json").exists()
    record = json.loads(canonical.read_text())
    assert record["schema_version"] == 2
    assert record["pass"]


@pytest.mark.bench
def test_cli_bench_pipeline_output_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "custom.json"
    code = main(
        [
            "bench-pipeline",
            "--json",
            "-o", str(out),
            "--nchunks", "24",
            "--frames-per-chunk", "20",
            "--window-chunks", "4",
            "--seed", "0",
        ]
    )
    assert code == 0
    assert not (tmp_path / "benchmarks").exists()
    # An explicit 0 is a seed, not "unset" (it used to become 7).
    assert json.loads(out.read_text())["workload"]["seed"] == 0

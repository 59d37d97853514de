"""Smoke tests for the ``bench-insitu`` harness and CLI target.

Marked ``bench`` so CI can run ``pytest -m bench`` as a fast gate: the
tiny stream analyzes in a second of wall time, yet -- because every
duration is *simulated* -- the < 15 % fused-overhead gate and the
time-to-results floor hold exactly as they do at full size, and the JSON
schema is pinned so downstream tooling reading ``BENCH_insitu.json``
never silently breaks.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchinsitu import FLOORS, GATE, run_insitu_bench
from repro.harness.benchkit import check_gate

#: Tiny but floor-clearing: 8 windows of 8 frames at 300 atoms.
_SMALL = dict(
    natoms=300, nframes=64, keyframe_interval=8, window_frames=8, depth=4
)


@pytest.fixture(scope="module")
def small_result():
    return run_insitu_bench(**_SMALL)


@pytest.mark.bench
def test_bench_insitu_schema_stable(small_result):
    result = small_result
    assert result["schema_version"] == 1
    assert set(result) == {
        "schema_version",
        "workload",
        "scenarios",
        "fused_overhead_frac",
        "speedup_vs_post_hoc",
        "floors",
        "tolerance",
        "identical",
        "equivalent",
        "pass",
        "metrics",
    }
    assert set(result["scenarios"]) == {"pipelined", "fused", "post_hoc"}
    assert set(result["floors"]) == set(FLOORS)
    assert result["metrics"]["schema_version"] == 1
    assert {f["name"] for f in result["metrics"]["families"]} >= {
        "ingest_windows_total",
        "analysis_windows_total",
        "analysis_frames_total",
        "analysis_seconds_total",
        "analysis_frames_seen",
    }
    assert result["scenarios"]["pipelined"]["ingest_s"] > 0.0
    fused = result["scenarios"]["fused"]
    assert fused["ingest_s"] > 0.0
    assert fused["analysis_seconds"] > 0.0
    assert fused["frames_analyzed"] == result["workload"]["nframes"]
    assert "rmsd" in fused["operators"]
    post_hoc = result["scenarios"]["post_hoc"]
    assert post_hoc["total_s"] == pytest.approx(
        post_hoc["ingest_s"] + post_hoc["readback_s"]
        + post_hoc["batch_scan_s"]
    )


@pytest.mark.bench
def test_bench_insitu_holds_floors_at_smoke_size(small_result):
    assert all(v.ok for v in check_gate(GATE, small_result))
    assert small_result["pass"]


@pytest.mark.bench
def test_bench_insitu_is_deterministic(small_result):
    again = run_insitu_bench(**_SMALL)
    assert again == small_result


@pytest.mark.bench
def test_cli_bench_insitu_json(tmp_path, scratch_results):
    code = main(
        [
            "bench-insitu",
            "--json",
            "--natoms", "300",
            "--nframes", "64",
            "--keyframe-interval", "8",
        ]
    )
    assert code == 0
    # One canonical copy, under benchmarks/results/; -o/--output overrides.
    canonical = tmp_path / "benchmarks" / "results" / "BENCH_insitu.json"
    assert canonical.exists()
    assert not (tmp_path / "BENCH_insitu.json").exists()
    record = json.loads(canonical.read_text())
    assert record["schema_version"] == 1
    assert record["pass"]


@pytest.mark.bench
def test_cli_bench_insitu_output_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "custom.json"
    code = main(
        [
            "bench-insitu",
            "--json",
            "-o", str(out),
            "--natoms", "300",
            "--nframes", "64",
            "--keyframe-interval", "8",
        ]
    )
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "benchmarks").exists()

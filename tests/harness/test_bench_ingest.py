"""Smoke tests for the ``bench-ingest`` harness and CLI target.

Marked ``bench`` so CI can run ``pytest -m bench`` as a fast gate: the
tiny stream ingests in well under a second of wall time, yet -- because
every duration is *simulated* -- the >= 2x pipelining floor holds exactly
as it does at full size, and the JSON schema is pinned so downstream
tooling reading ``BENCH_ingest.json`` never silently breaks.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchingest import BUFFER_WATERMARK, FLOORS, run_ingest_bench

#: Tiny but floor-clearing: 16 windows of 8 frames at 2000 atoms.
_SMALL = dict(
    natoms=2000, nframes=128, keyframe_interval=8, window_frames=8, depth=4
)


@pytest.fixture(scope="module")
def small_result():
    return run_ingest_bench(**_SMALL)


@pytest.mark.bench
def test_bench_ingest_schema_stable(small_result):
    result = small_result
    assert result["schema_version"] == 1
    assert set(result) == {
        "schema_version",
        "workload",
        "scenarios",
        "speedup_vs_serial",
        "floors",
        "identical",
        "buffer_bounded",
        "pass",
        "metrics",
    }
    assert result["metrics"]["schema_version"] == 1
    assert {f["name"] for f in result["metrics"]["families"]} >= {
        "ingest_windows_total",
        "ingest_backpressure_waits_total",
        "dispatcher_writes_total",
        "dispatcher_coalesced_runs_total",
        "dispatcher_requests_saved_total",
    }
    assert set(result["workload"]) == {
        "natoms",
        "nframes",
        "keyframe_interval",
        "window_frames",
        "depth",
        "windows",
        "raw_mb",
        "buffer_watermark_mb",
        "seed",
    }
    assert set(result["scenarios"]) == {
        "serial",
        "pipelined_uncoalesced",
        "pipelined",
    }
    assert set(result["speedup_vs_serial"]) == {
        "pipelined_uncoalesced",
        "pipelined",
    }
    assert set(result["floors"]) == set(FLOORS)
    for scenario in result["scenarios"].values():
        assert scenario["ingest_s"] > 0.0


@pytest.mark.bench
def test_bench_ingest_holds_floors_at_smoke_size(small_result):
    result = small_result
    assert result["identical"], "pipelining changed the stored bytes"
    speedups = result["speedup_vs_serial"]
    assert speedups["pipelined"] >= FLOORS["pipelined_vs_serial"]
    # Overlap alone already wins; coalescing stacks on top of it.
    assert speedups["pipelined_uncoalesced"] > 1.0
    assert speedups["pipelined"] > speedups["pipelined_uncoalesced"]
    # The O(window x depth) memory claim: bounded write-behind buffer.
    assert result["buffer_bounded"]
    for name in ("pipelined", "pipelined_uncoalesced"):
        peak = result["scenarios"][name]["buffered_bytes_peak"]
        assert 0 < peak <= BUFFER_WATERMARK
    assert result["scenarios"]["pipelined"]["overlap_ratio"] > 0.5
    assert result["pass"]


@pytest.mark.bench
def test_bench_ingest_coalescing_saves_requests(small_result):
    serial = small_result["scenarios"]["serial"]["write_coalescing"]
    uncoal = small_result["scenarios"]["pipelined_uncoalesced"]
    pipe = small_result["scenarios"]["pipelined"]["write_coalescing"]
    assert serial["coalesced_runs"] == 0
    assert uncoal["write_coalescing"]["coalesced_runs"] == 0
    nwindows = small_result["workload"]["windows"]
    assert pipe["coalesced_runs"] == nwindows
    assert pipe["requests_saved"] >= nwindows
    # Same bytes landed regardless of request shape.
    assert (
        small_result["scenarios"]["serial"]["dispatched_bytes_per_tag"]
        == small_result["scenarios"]["pipelined"]["dispatched_bytes_per_tag"]
    )


@pytest.mark.bench
def test_bench_ingest_is_deterministic(small_result):
    again = run_ingest_bench(**_SMALL)
    assert again == small_result


@pytest.mark.bench
def test_cli_bench_ingest_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "bench-ingest",
            "--json",
            "--natoms", "2000",
            "--nframes", "128",
            "--keyframe-interval", "8",
        ]
    )
    assert code == 0
    # One canonical copy, under benchmarks/results/; -o/--output overrides.
    canonical = tmp_path / "benchmarks" / "results" / "BENCH_ingest.json"
    assert canonical.exists()
    assert not (tmp_path / "BENCH_ingest.json").exists()
    record = json.loads(canonical.read_text())
    assert record["schema_version"] == 1
    assert record["pass"]


@pytest.mark.bench
def test_cli_bench_ingest_output_override(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "custom.json"
    code = main(
        [
            "bench-ingest",
            "--json",
            "-o", str(out),
            "--natoms", "2000",
            "--nframes", "128",
            "--keyframe-interval", "8",
        ]
    )
    assert code == 0
    assert out.exists()
    assert not (tmp_path / "benchmarks").exists()

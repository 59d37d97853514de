"""Smoke tests for the ``bench-lod`` harness and CLI target.

Marked ``bench`` (and ``lod``) so CI can run ``pytest -m bench`` as a
fast gate: the small dataset replays in a couple of seconds of wall
time, yet -- because every duration is *simulated* -- the floors hold
exactly as they do at full size, and the JSON schema is pinned so
downstream tooling reading ``BENCH_lod.json`` never silently breaks.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchlod import FLOORS, run_lod_bench

#: Small but floor-clearing: chunks big enough that transfer time (the
#: thing the coarse tier quarters) dominates the per-request seek tax.
_SMALL = dict(natoms=2000, nchunks=28, frames_per_chunk=40, window_chunks=4)

_SMALL_ARGS = [
    "--natoms", "2000",
    "--nchunks", "28",
    "--frames-per-chunk", "40",
    "--window-chunks", "4",
]


@pytest.fixture(scope="module")
def small_result():
    return run_lod_bench(**_SMALL)


@pytest.mark.bench
@pytest.mark.lod
def test_bench_lod_schema_stable(small_result):
    result = small_result
    assert result["schema_version"] == 1
    assert set(result) == {
        "schema_version",
        "workload",
        "scenarios",
        "bytes_per_frame",
        "error_bound",
        "floors",
        "identical",
        "lod_speedup",
        "pass",
        "lod",
    }
    assert set(result["workload"]) == {
        "natoms",
        "nchunks",
        "frames_per_chunk",
        "window_chunks",
        "lod_precision",
        "seed",
    }
    assert set(result["scenarios"]) == {
        f"{pattern}_{tier}"
        for pattern in ("scrub", "backward", "skip")
        for tier in ("full", "lod")
    }
    assert set(result["floors"]) == set(FLOORS)
    for scenario in result["scenarios"].values():
        assert scenario["playback_s"] > 0.0
    # The tiered deployment's counters: the observable trace of LOD serving.
    assert result["lod"]["served"] > 0
    assert result["lod"]["fallback"] == 0


@pytest.mark.bench
@pytest.mark.lod
def test_bench_lod_holds_floors_at_smoke_size(small_result):
    result = small_result
    assert result["identical"]
    assert result["error_bound"]["measured"] <= result["error_bound"]["advertised"]
    ratio = result["bytes_per_frame"]["ratio"]
    assert ratio <= FLOORS["lod_bytes_per_frame_ratio"]
    assert result["lod_speedup"]["scrub"] >= FLOORS["scrub_lod_speedup"]
    # Rewind and jumpy browse are the satellite scenarios: the rewind
    # confirms a negative exact stride; the jumpy browse never repeats a
    # stride, so any readahead there came from the direction detector.
    for pattern in ("backward", "skip"):
        assert result["lod_speedup"][pattern] >= 1.0
        assert (
            result["scenarios"][f"{pattern}_lod"]["prefetcher"]["issued"] > 0
        )
    assert (
        result["scenarios"]["skip_lod"]["prefetcher"]["issued_direction"] > 0
    )
    assert (
        result["scenarios"]["scrub_lod"]["prefetcher"]["issued_direction"]
        == 0
    )
    assert result["pass"]


@pytest.mark.bench
@pytest.mark.lod
def test_bench_lod_is_deterministic(small_result):
    again = run_lod_bench(**_SMALL)
    assert again == small_result


@pytest.mark.bench
@pytest.mark.lod
def test_bench_lod_single_tier_run_skips_comparative_floors():
    result = run_lod_bench(precision="lod", **_SMALL)
    assert "lod_speedup" not in result
    assert set(result["scenarios"]) == {"scrub_lod", "backward_lod", "skip_lod"}
    assert result["pass"]  # identity + error bound still gate


@pytest.mark.bench
@pytest.mark.lod
def test_cli_bench_lod_json(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["bench-lod", "--json"] + _SMALL_ARGS)
    assert code == 0
    canonical = tmp_path / "benchmarks" / "results" / "BENCH_lod.json"
    assert canonical.exists()
    record = json.loads(canonical.read_text())
    assert record["schema_version"] == 1
    assert record["pass"]


@pytest.mark.bench
@pytest.mark.lod
def test_cli_bench_lod_precision_knob(tmp_path, monkeypatch, capsys):
    """--precision and --lod-precision reach the harness from the CLI."""
    monkeypatch.chdir(tmp_path)
    code = main(
        ["bench-lod", "--precision", "full", "--lod-precision", "25.0"]
        + _SMALL_ARGS
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "lod precision 25.0" in out
    assert "scrub_full" in out and "scrub_lod" not in out

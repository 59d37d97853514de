"""Tier-1 smoke test for the ``bench-codec`` CLI target and its JSON schema.

Kept deliberately small and assertion-light on absolute numbers: the full
benchmark (with the projected-speedup and ``baseline_ratio`` floors)
lives in ``benchmarks/bench_codec.py`` and the bench-marked smoke in
``tests/harness/test_bench_codec_smoke.py``.  Here we pin the v3 schema
so downstream tooling reading ``BENCH_codec.json`` never silently
breaks, and check the cheap invariants: every worker count is
bit-identical, the pool lifecycle shows up in the embedded metrics
snapshot, and no shared-memory segment outlives the run.

At this workload size the projected-speedup floors are *expected* to
fail (3 GOFs cannot beat 3x at 8 workers), so the CLI legitimately
returns 1; the tests assert on the written record, not the exit code.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchcodec import FLOORS, WORKER_SWEEP, run_codec_bench

_SMALL = dict(natoms=600, nframes=12, keyframe_interval=4, repeats=2)


@pytest.fixture(scope="module")
def small_result():
    return run_codec_bench(**_SMALL)


def test_bench_codec_schema_stable(small_result):
    result = small_result
    assert result["schema_version"] == 3
    assert set(result) == {
        "schema_version",
        "workload",
        "host",
        "workers",
        "workers_swept",
        "repeats",
        "encode_mb_s",
        "decode_mb_s",
        "baseline_ratio",
        "sweep",
        "projected_speedup",
        "parallel_speedup",
        "bit_identical",
        "floors",
        "pass",
        "metrics",
    }
    assert set(result["workload"]) == {
        "natoms",
        "nframes",
        "keyframe_interval",
        "gofs",
        "raw_mb",
        "compressed_mb",
        "compression_ratio",
        "seed",
    }
    assert set(result["host"]) == {"cpus"}
    assert result["workers_swept"] == list(WORKER_SWEEP)
    assert set(result["encode_mb_s"]) == {"serial", "parallel"}
    assert set(result["decode_mb_s"]) == {"serial", "parallel", "legacy_kernel"}
    assert set(result["floors"]) == set(FLOORS)
    assert result["baseline_ratio"] > 0


def test_bench_codec_records_one_worker_sweep(small_result):
    sweep = small_result["sweep"]
    assert set(sweep) == {str(w) for w in WORKER_SWEEP}
    for cell in sweep.values():
        assert set(cell) == {
            "decode_mb_s",
            "encode_mb_s",
            "decode_speedup",
            "encode_speedup",
        }
        assert cell["decode_mb_s"] > 0
        assert cell["encode_mb_s"] > 0


def test_bench_codec_projection_terms_recorded(small_result):
    projected = small_result["projected_speedup"]
    assert set(projected) == {
        "model",
        "decode",
        "encode",
        "decode_fixed_s",
        "encode_fixed_s",
        "decode_overhead_s",
        "encode_overhead_s",
    }
    for column in (projected["decode"], projected["encode"]):
        assert set(column) == {str(w) for w in WORKER_SWEEP}
        assert all(v > 0 for v in column.values())
    speedup = small_result["parallel_speedup"]
    assert set(speedup) == {"decode", "encode", "basis", "measured"}
    assert speedup["basis"] == "projected_process_critical_path_8w"
    assert speedup["decode"] == projected["decode"][str(max(WORKER_SWEEP))]


def test_bench_codec_bit_identical_across_backends(small_result):
    assert small_result["bit_identical"] is True


def test_bench_codec_metrics_capture_pool_lifecycle(small_result):
    metrics = small_result["metrics"]
    names = {f["name"] for f in metrics["families"]}
    assert names >= {
        "codec_pool_spawns_total",
        "codec_pool_closes_total",
        "codec_tasks_total",
        "codec_shm_segments_total",
        "codec_shm_bytes_total",
        "codec_shm_active",
    }
    by_name = {f["name"]: f for f in metrics["families"]}
    # Every segment the bench created was unlinked before it returned.
    active = by_name["codec_shm_active"]["metrics"]
    assert all(s["value"] == 0 for s in active)
    assert any(
        s["value"] > 0 for s in by_name["codec_shm_segments_total"]["metrics"]
    )


def test_cli_writes_json(tmp_path):
    out = tmp_path / "BENCH_codec.json"
    argv = [
        "bench-codec", "--json", "-o", str(out),
        "--natoms", "600", "--nframes", "12",
        "--keyframe-interval", "4", "--repeats", "1",
    ]
    # Exit code reflects the floors (a 3-GOF workload cannot clear them);
    # the record must be written either way.
    assert main(argv) in (0, 1)
    data = json.loads(out.read_text())
    assert data["schema_version"] == 3
    assert data["workload"]["nframes"] == 12
    assert data["bit_identical"] is True


def test_cli_text_mode(capsys):
    argv = [
        "bench-codec", "--natoms", "600", "--nframes", "8",
        "--keyframe-interval", "4", "--repeats", "1",
    ]
    assert main(argv) in (0, 1)
    out = capsys.readouterr().out
    assert "baseline_ratio" in out
    assert "sweep" in out
    assert "projected" in out

"""Tier-1 smoke test for the ``bench-codec`` CLI target and its JSON schema.

Kept deliberately small and assertion-light on absolute numbers: the full
benchmark (with the ``baseline_ratio`` and compression floors) lives in
``benchmarks/bench_codec.py`` and the bench-marked smoke in
``tests/harness/test_bench_codec_smoke.py``.  Here we pin the v4 schema
so downstream tooling reading ``BENCH_codec.json`` never silently
breaks.

At this workload size the floors are *expected* to fail (3 GOFs of 600
atoms neither compress nor decode like the full workload), so the CLI
legitimately returns 1; the tests assert on the written record, not the
exit code.
"""

import json

import pytest

from repro import fastzlib
from repro.cli import main
from repro.harness.benchcodec import FLOORS, run_codec_bench

_SMALL = dict(natoms=600, nframes=12, keyframe_interval=4, repeats=2)


@pytest.fixture(scope="module")
def small_result():
    return run_codec_bench(**_SMALL)


def test_bench_codec_schema_stable(small_result):
    result = small_result
    assert result["schema_version"] == 4
    assert set(result) == {
        "schema_version",
        "workload",
        "host",
        "repeats",
        "encode_mb_s",
        "decode_mb_s",
        "legacy_decode_mb_s",
        "baseline_ratio",
        "floors",
        "pass",
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
    assert set(result["host"]) == {"cpus", "inflate"}
    assert result["host"]["inflate"] == fastzlib.backend()
    assert set(result["floors"]) == set(FLOORS) == {
        "baseline_ratio",
        "compression_ratio",
    }
    for rate in ("encode_mb_s", "decode_mb_s", "legacy_decode_mb_s"):
        assert result[rate] > 0
    assert result["baseline_ratio"] > 0


def test_record_names_the_inflate_backend(monkeypatch):
    """A host without libdeflate records ``zlib``: its decode MB/s is not
    comparable to a libdeflate host's."""
    monkeypatch.setattr(fastzlib, "_LIB", None)
    result = run_codec_bench(**dict(_SMALL, repeats=1))
    assert result["host"]["inflate"] == "zlib"


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
    assert data["schema_version"] == 4
    assert data["workload"]["nframes"] == 12


def test_cli_text_mode(capsys):
    """Text mode prints the gate's rows over the run's record."""
    argv = [
        "bench-codec", "--natoms", "600", "--nframes", "8",
        "--keyframe-interval", "4", "--repeats", "1",
    ]
    assert main(argv) in (0, 1)
    out = capsys.readouterr().out
    assert out.startswith("bench-codec\nrow")
    assert "baseline_ratio" in out and "(floors.compression_ratio)" in out
    assert out.rstrip().splitlines()[-1] in ("pass: True", "pass: False")

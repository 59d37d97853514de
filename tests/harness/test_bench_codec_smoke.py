"""Bench-marked smoke for the codec benchmark harness.

Marked ``bench`` so CI can run ``pytest -m bench`` as a fast gate.  A
moderate workload (12 GOFs, ~2 MB raw) keeps wall time in seconds while
still running the full v4 record.  Absolute floor values are asserted
only by ``benchmarks/bench_codec.py`` at full size; here we check the
*shape* of the result.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchcodec import run_codec_bench

_SMOKE = dict(natoms=2000, nframes=96, keyframe_interval=8, repeats=2)


@pytest.fixture(scope="module")
def smoke_result():
    return run_codec_bench(**_SMOKE)


@pytest.mark.bench
def test_bench_codec_smoke_schema_and_identity(smoke_result):
    assert smoke_result["schema_version"] == 4
    assert smoke_result["workload"]["gofs"] == 12
    assert smoke_result["decode_mb_s"] > 0
    assert smoke_result["encode_mb_s"] > 0


@pytest.mark.bench
def test_cli_bench_codec_writes_canonical_artifact(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(
        [
            "bench-codec", "--json",
            "--natoms", "600", "--nframes", "12",
            "--keyframe-interval", "4", "--repeats", "1",
        ]
    )
    # Floors legitimately fail at this size; the artifact must land
    # under benchmarks/results/ either way.
    assert code in (0, 1)
    canonical = tmp_path / "benchmarks" / "results" / "BENCH_codec.json"
    assert canonical.exists()
    record = json.loads(canonical.read_text())
    assert record["schema_version"] == 4

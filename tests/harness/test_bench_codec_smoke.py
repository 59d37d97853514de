"""Bench-marked smoke for the codec benchmark harness.

Marked ``bench`` so CI can run ``pytest -m bench`` as a fast gate.  A
moderate workload (12 GOFs, ~2 MB raw) keeps wall time in seconds while
still exercising the full v3 pipeline: the worker sweep, the projection
model, and the embedded metrics snapshot.
Absolute floor values are asserted only by ``benchmarks/bench_codec.py``
at full size; here we check the *shape* of the result -- parallelism
must help on the projected critical path, identity must hold, and no
shared-memory segment may leak.
"""

import json

import pytest

from repro.cli import main
from repro.harness.benchcodec import WORKER_SWEEP, run_codec_bench

_SMOKE = dict(natoms=2000, nframes=96, keyframe_interval=8, repeats=2)


@pytest.fixture(scope="module")
def smoke_result():
    return run_codec_bench(**_SMOKE)


@pytest.mark.bench
def test_bench_codec_smoke_schema_and_identity(smoke_result):
    assert smoke_result["schema_version"] == 3
    assert smoke_result["workload"]["gofs"] == 12
    assert smoke_result["bit_identical"] is True
    assert set(smoke_result["sweep"]) == {str(w) for w in WORKER_SWEEP}


def _projection_scales(result):
    """More workers shorten the projected critical path."""
    projected = result["projected_speedup"]
    widest = str(max(WORKER_SWEEP))
    return (
        all(
            column[widest] > column["1"]
            for column in (projected["decode"], projected["encode"])
        )
        # With 12 GOFs over 8 workers the projected decode path should
        # beat serial comfortably even before the full-size floors apply.
        and projected["decode"][widest] > 1.2
    )


@pytest.mark.bench
def test_bench_codec_smoke_projection_scales(smoke_result):
    """The projection is built from wall-clock samples, best of two at
    this size: per-GOF kernel costs over a dispatch-overhead probe.  On a
    shared VM one 20-40 % slow phase landing on the probe inverts the
    ratio (seen: 0.89 inside a full tier-1 run, 1.8-3.0 standalone), so
    the *shape* is judged on up to three measurements -- a codec whose
    projection really stopped scaling fails all three.  The full-size
    floors in ``benchmarks/bench_codec.py`` are not touched by this."""
    seen = []
    for attempt in range(3):
        result = smoke_result if attempt == 0 else run_codec_bench(**_SMOKE)
        if _projection_scales(result):
            return
        seen.append(result["projected_speedup"])
    pytest.fail(f"projection does not scale in 3 measurements: {seen}")


@pytest.mark.bench
def test_bench_codec_smoke_pools_and_segments_accounted(smoke_result):
    by_name = {
        f["name"]: f for f in smoke_result["metrics"]["families"]
    }
    spawns = sum(
        s["value"] for s in by_name["codec_pool_spawns_total"]["metrics"]
    )
    closes = sum(
        s["value"] for s in by_name["codec_pool_closes_total"]["metrics"]
    )
    assert spawns >= 2  # probe pool + sweep pool
    assert closes >= spawns  # every spawn (incl. respawns) was closed
    assert all(
        s["value"] == 0 for s in by_name["codec_shm_active"]["metrics"]
    )


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
    assert record["schema_version"] == 3
    assert record["bit_identical"] is True

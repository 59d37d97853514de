"""Pipelined read-path benchmark: Fig. 8/9 playback, four read paths.

Replays sequential windowed playback against a 96-chunk dataset on the
paper's rotating tier under the serial baseline, cold and warm block
cache, and the adaptive prefetcher, and records the canonical
``benchmarks/results/BENCH_pipeline.json``.
Durations are simulated seconds, so the floors (prefetch >= 2x over the
serial-request baseline, warm-pass cache hit ratio >= 0.9) hold
deterministically -- there is no scheduler noise to absorb.
"""

from repro.harness.benchpipeline import FLOORS


def test_bench_pipeline_json_floors(run_gate):
    """Emit BENCH_pipeline.json and hold the pipelining floors."""
    result = run_gate("bench-pipeline")
    assert result["schema_version"] == 2
    assert result["identical"], "pipelined playback changed the bytes seen"
    speedups = result["speedup_vs_serial"]
    assert speedups["prefetch"] >= FLOORS["prefetch_vs_serial"]
    assert result["scenarios"]["warm_cache"]["hit_ratio"] >= FLOORS["warm_hit_ratio"]
    # The pipeline is strictly additive: every accelerated path beats serial.
    assert speedups["cold_cache"] > 1.0
    assert speedups["warm_cache"] > speedups["cold_cache"]
    assert result["pass"]

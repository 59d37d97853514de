"""Pipelined read-path benchmark: Fig. 8/9 playback, four read paths.

Replays sequential windowed playback against a 96-chunk dataset on the
paper's rotating tier under the serial baseline, cold and warm block
cache, and the adaptive prefetcher, and records the canonical
``benchmarks/results/BENCH_pipeline.json``.
Durations are simulated seconds, so the floors (prefetch >= 2x over the
serial-request baseline, warm-pass cache hit ratio >= 0.9) hold
deterministically -- there is no scheduler noise to absorb.
"""


def test_bench_pipeline_json_floors(run_gate):
    """Emit BENCH_pipeline.json and hold every row of its gate."""
    result = run_gate("bench-pipeline")
    assert result["schema_version"] == 2

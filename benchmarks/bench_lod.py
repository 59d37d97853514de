"""Precision-selective serving benchmark: scrubbing on the LOD tier.

Replays forward, backward, and skip scrubbing against a chunked dataset
on the rotating tier, once per precision tier, and records the canonical
``benchmarks/results/BENCH_lod.json``.  Durations are simulated seconds,
so the floors (coarse bytes/frame <= 0.35x full, coarse forward scrub
>= 2x faster, measured error within the advertised bound, full tier
bit-identical with and without the LOD layer) hold deterministically.
"""


def test_bench_lod_json_floors(run_gate):
    """Emit BENCH_lod.json and hold every row of its gate."""
    result = run_gate("bench-lod")
    assert result["schema_version"] == 1

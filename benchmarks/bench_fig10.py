"""Fig. 10: the 1 TB fat-node evaluation (incl. OOM kills and energy).

Regenerates ``fig10.txt`` (``python -m repro fig10``): the Table-5
platform tables and the four panels over the Table-6 sweep.  The paper's
bands (kill thresholds, >2x renderable frames, energy) are the ``fig10*``
entries of ``repro.harness.scorecard.CLAIMS``.

The timed kernel is one fat-node pipeline point.
"""

from repro.harness import fat_node, run_point


def test_fig10_regeneration(run_artifact):
    run_artifact("fig10")


def test_bench_fat_node_point(benchmark):
    """Timed kernel: one fat-node pipeline point."""
    result = benchmark(run_point, fat_node, "D-ada-p", 1_564_000)
    assert not result.killed

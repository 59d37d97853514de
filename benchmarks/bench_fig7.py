"""Fig. 7: the SSD-server evaluation (retrieval / turnaround / memory).

Regenerates ``fig7.txt`` (``python -m repro fig7``); the paper's bands are
the ``fig7*`` entries of ``repro.harness.scorecard.CLAIMS``.

The timed kernel is one full modeled pipeline point.
"""

from repro.harness import run_point, ssd_server


def test_fig7_regeneration(run_artifact):
    run_artifact("fig7")


def test_bench_pipeline_point(benchmark):
    """Timed kernel: one scenario point (platform build + DES run)."""
    result = benchmark(run_point, ssd_server, "C-trad", 5_006)
    assert not result.killed

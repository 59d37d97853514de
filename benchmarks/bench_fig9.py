"""Fig. 9: the nine-node cluster evaluation (PVFS vs ADA).

Regenerates ``fig9.txt`` (``python -m repro fig9``): the Table-4 platform
tables and the three panels over the cluster sweep (626..6,256 frames).
The paper's bands are the ``fig9*`` entries of
``repro.harness.scorecard.CLAIMS``.

The timed kernel is one cluster pipeline point (striped DES read fan-out).
"""

from repro.harness import run_point, small_cluster


def test_fig9_regeneration(run_artifact):
    run_artifact("fig9")


def test_bench_cluster_point(benchmark):
    """Timed kernel: one striped-read pipeline point on the cluster."""
    result = benchmark(run_point, small_cluster, "D-trad", 6_256)
    assert not result.killed

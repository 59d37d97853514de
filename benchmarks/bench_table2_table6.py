"""Tables 2 and 6: loaded-size comparisons (ext4/XFS vs ADA).

Both tables are pure sizing arithmetic: the compressed file a traditional
FS moves vs. the decompressed protein subset ADA moves, against the raw
volume.  We regenerate every row from the sizing model and cross-check the
constants with the real codec (calibration); the paper's printed rows are
the ``table*`` and ``calibration-*`` entries of
``repro.harness.scorecard.CLAIMS``.

The timed kernel is ADA's dispatch of a materialized dataset.
"""

from repro.core import DataPreProcessor


def test_table2_regeneration(run_artifact):
    run_artifact("table2")


def test_table6_regeneration(run_artifact):
    run_artifact("table6")


def test_sizing_constants_vs_real_codec(run_artifact):
    """Calibration: paper constants vs the live generator + codec."""
    run_artifact("calibration")


def test_bench_ada_ingest(benchmark, small_workload):
    """Timed kernel: pre-process + split one dataset for dispatch."""
    pre = DataPreProcessor()

    def ingest():
        return pre.process_topology(
            small_workload.system.topology, small_workload.xtc_blob
        )

    result = benchmark(ingest)
    assert set(result.subsets) == {"p", "m"}

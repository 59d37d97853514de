"""Tests for the report metric registry and formatting edge cases."""

import pytest

from repro.harness import run_sweep, ssd_server
from repro.harness.report import METRICS, series_pivot
from repro.harness.scenarios import RunResult


def test_every_metric_has_label_extractor_formatter():
    for key, (label, extract, fmt) in METRICS.items():
        assert isinstance(label, str) and label
        assert callable(extract) and callable(fmt)


def test_all_metrics_render_on_real_results():
    results = run_sweep(ssd_server, (626,), scenario_keys=("C-trad",))
    for metric in METRICS:
        out = series_pivot(results, metric).render()
        assert "626" in out


def test_energy_metric_formats_kilojoules():
    results = run_sweep(ssd_server, (626,), scenario_keys=("C-trad",))
    out = series_pivot(results, "energy").render()
    assert "kJ" in out


def test_loaded_metric_matches_table2_column():
    results = run_sweep(ssd_server, (626,), scenario_keys=("C-trad",))
    out = series_pivot(results, "loaded").render()
    assert "100" in out  # 100 MB compressed at 626 frames


def test_missing_cell_renders_dash():
    r = RunResult(
        scenario="C-trad", nframes=626, loaded_nbytes=1, raw_nbytes=1,
        retrieval_s=1.0, turnaround_s=2.0, peak_memory_nbytes=3.0, energy_j=4.0,
    )
    r2 = RunResult(
        scenario="D-trad", nframes=999, loaded_nbytes=1, raw_nbytes=1,
        retrieval_s=1.0, turnaround_s=2.0, peak_memory_nbytes=3.0, energy_j=4.0,
    )
    out = series_pivot([r, r2], "turnaround").render()
    assert "-" in out.splitlines()[-1] or "-" in out.splitlines()[-2]

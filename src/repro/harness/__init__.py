"""Benchmark harness: platforms, scenarios, runner, and reporting.

This package regenerates every table and figure of the paper's evaluation:
platform factories encode Tables 4/5, scenario pipelines encode the C/D x
ext4/ADA notation of Table 3, the runner sweeps frame counts, and the
report module prints paper-shaped tables and series.
"""

from repro.harness.calibration import (
    E5_2603V4,
    E7_4820V3,
    CalibrationReport,
    measure_calibration,
)
from repro.harness.chaos import ChaosReport, render_chaos, run_chaos
from repro.harness.platforms import Platform, fat_node, small_cluster, ssd_server
from repro.harness.scenarios import (
    SCENARIOS,
    RunResult,
    Scenario,
)
from repro.harness.runner import run_point, run_sweep
from repro.harness.report import Table, series_pivot
from repro.harness.tracedemo import run_trace_demo

__all__ = [
    "CalibrationReport",
    "ChaosReport",
    "E5_2603V4",
    "E7_4820V3",
    "Platform",
    "RunResult",
    "SCENARIOS",
    "Scenario",
    "Table",
    "fat_node",
    "measure_calibration",
    "render_chaos",
    "run_chaos",
    "run_point",
    "run_sweep",
    "run_trace_demo",
    "series_pivot",
    "small_cluster",
    "ssd_server",
]

"""Schema and determinism of the end-to-end benchmark at ``--smoke`` size.

Not part of tier-1 (``testpaths = ["tests"]``); run it explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.e2e import run, spec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
WORKLOADS = [w.name for w in spec.WORKLOADS]


def test_benchmark_json_is_generated_from_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        assert json.load(handle) == spec.benchmark_json()


def test_catalogue_is_well_formed():
    names = [m.name for m in spec.END_TO_END + spec.PER_LAYER]
    assert len(names) == len(set(names))
    assert "setup_s" in {m.name for m in spec.END_TO_END}
    for metric in spec.END_TO_END:
        assert metric.clock in ("host", "sim")
        assert 0.0 < metric.bound <= 0.25
    for metric in spec.PER_LAYER:
        assert metric.clock in ("host", "sim", "count")
        assert metric.moves, f"{metric.name}: no predicted interaction"
    assert 2 <= len(spec.WORKLOADS) <= 8


def _exact(record, catalogue):
    """The values that must repeat bit for bit: every non-host metric."""
    metrics = record["result"]["metrics"]
    return {
        m.name: metrics[m.name]["value"] for m in catalogue if m.clock != "host"
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name):
    first = run.run_workload(name, seed=3, seconds=1, trace=False, smoke=True)
    result = first["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in spec.END_TO_END}
    for metric in spec.END_TO_END:
        entry = result["metrics"][metric.name]
        assert entry["unit"] == metric.unit
        assert entry["value"] > 0, f"{metric.name} must never read 0"
    second = run.run_workload(name, seed=3, seconds=1, trace=False, smoke=True)
    assert _exact(first, spec.END_TO_END) == _exact(second, spec.END_TO_END)
    other_seed = run.run_workload(name, seed=4, seconds=1, trace=False, smoke=True)
    assert other_seed["result"]["correct"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    first = run.run_workload(name, seed=3, seconds=1, trace=True, smoke=True)
    result = first["result"]
    assert result["correct"]
    assert set(result["metrics"]) == {m.name for m in spec.PER_LAYER}
    for metric in spec.PER_LAYER:
        assert result["metrics"][metric.name]["unit"] == metric.unit
    assert os.path.exists(os.path.join(ROOT, first["chrome_trace"]))
    second = run.run_workload(name, seed=3, seconds=1, trace=True, smoke=True)
    assert _exact(first, spec.PER_LAYER) == _exact(second, spec.PER_LAYER)
    # Tracing from outside must not change what the program computes.
    untraced = run.run_workload(name, seed=3, seconds=1, trace=False, smoke=True)
    assert (
        untraced["result"]["attempted"] == result["attempted"]
        and untraced["verify_checks"] == first["verify_checks"]
    )

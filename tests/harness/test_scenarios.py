"""Tests for the scenario pipelines and the paper's headline shapes.

Scenario and sweep mechanics, plus one test per paper figure panel that
checks the scorecard claims stating its bands.
"""

import pytest

from repro.errors import ConfigurationError
from repro.harness import fat_node, run_point, run_sweep, ssd_server
from repro.harness.scenarios import SCENARIOS, ScenarioPipeline
from repro.harness.scorecard import CLAIMS
from repro.workloads import SizingModel


def test_unknown_scenario_rejected():
    pipeline = ScenarioPipeline(ssd_server(), SizingModel.paper().dataset(626))
    with pytest.raises(ConfigurationError):
        pipeline.run("Z-nope")


def test_scenario_registry_matches_table3():
    assert set(SCENARIOS) == {"C-trad", "D-trad", "D-ada-all", "D-ada-p"}
    assert SCENARIOS["C-trad"].display("ext4") == "C-ext4"
    assert SCENARIOS["D-ada-p"].display("ext4") == "D-ADA (protein)"


def test_loaded_bytes_per_scenario():
    d = SizingModel.paper().dataset(626)
    loaded = {
        k: run_point(ssd_server, k, 626).loaded_nbytes for k in SCENARIOS
    }
    assert loaded["C-trad"] == d.compressed_nbytes
    assert loaded["D-trad"] == d.raw_nbytes
    assert loaded["D-ada-all"] == d.raw_nbytes
    assert loaded["D-ada-p"] == d.protein_nbytes


# -- paper claims -------------------------------------------------------------
# Each figure test checks the scorecard claims that state its bands; the
# bands themselves live only in ``repro.harness.scorecard.CLAIMS``.

CLAIM = {claim.key: claim for claim in CLAIMS}


def _holds(*keys):
    for key in keys:
        measured, passed = CLAIM[key].check()
        assert passed, f"{key}: measured {measured}"


def test_fig7a_retrieval_ordering():
    _holds("fig7a-ordering", "fig7a-ada-all")


def test_fig7b_headline_13x():
    _holds("fig7b-13.4x")


def test_fig7b_ada_all_matches_d_ext4():
    _holds("fig7b-ada-all")


def test_fig7b_gap_grows_with_frames():
    _holds("fig7b-widening")


def test_fig7c_memory_2_5x():
    _holds("fig7c-2.5x")


def test_no_kills_on_ssd_server_sweep():
    _holds("fig7-no-kills")


def test_fig9a_ada_beats_pvfs_retrieval_2x():
    _holds("fig9a-2x")


def test_fig9b_headline_9x():
    _holds("fig9b-9x")


def test_fig9c_memory_trend_matches_fig7c():
    _holds("fig9c-same-memory", "fig9c-2.5x")


def test_fig10_oom_kill_thresholds():
    _holds("fig10-kills")


def test_fig10_ada_renders_2x_more_frames():
    _holds("fig10-2x-graphs")


def test_fig10a_retrieval_becomes_insignificant():
    _holds("fig10a-10pct")


def test_fig10d_energy_shape():
    _holds("fig10d-3x", "fig10d-ada-all", "fig10d-xfs-kj", "fig10d-ada-all-kj")


def test_killed_runs_report_partial_energy():
    r = run_point(fat_node, "C-trad", 1_876_800)
    assert r.killed and r.killed_phase == "decompress"
    assert r.energy_j > 0
    assert r.turnaround_s > 0


# -- sweep mechanics ---------------------------------------------------------------


def test_run_sweep_orders_scenario_major():
    results = run_sweep(ssd_server, (626, 1_251), scenario_keys=("C-trad", "D-trad"))
    assert [(r.scenario, r.nframes) for r in results] == [
        ("C-trad", 626), ("C-trad", 1_251), ("D-trad", 626), ("D-trad", 1_251),
    ]


def test_custom_sizing_model_flows_through():
    sizing = SizingModel(natoms=10_000, compression_ratio=0.5, protein_fraction=0.5)
    r = run_point(ssd_server, "C-trad", 100, sizing=sizing)
    assert r.loaded_nbytes == pytest.approx(100 * 10_000 * 12 * 0.5, rel=0.01)

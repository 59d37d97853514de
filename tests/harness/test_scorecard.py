"""Tests for the reproduction scorecard."""

import pytest

from repro.harness.scorecard import CLAIMS, render_scorecard


@pytest.mark.parametrize("claim", CLAIMS, ids=lambda claim: claim.key)
def test_every_claim_passes(claim):
    """The headline regression: every paper claim reproduces."""
    measured, passed = claim.check()
    assert passed, f"{claim.key} failed: measured {measured}"


def test_claim_keys_unique_and_sourced():
    keys = [c.key for c in CLAIMS]
    assert len(keys) == len(set(keys))
    assert all(c.source for c in CLAIMS)
    assert len(CLAIMS) >= 26


def test_render_scorecard_shape():
    text = render_scorecard()
    assert "Reproduction scorecard" in text
    assert text.count("PASS") == len(CLAIMS)
    assert "FAIL" not in text
    assert f"{len(CLAIMS)}/{len(CLAIMS)} claims reproduced" in text


def test_cli_scorecard_target(capsys):
    """The CLI scorecard adds every gate's rows over its committed record."""
    from repro.cli import BENCHES, main

    assert main(["scorecard"]) == 0
    out = capsys.readouterr().out
    nrows = sum(len(bench.gate) for bench in BENCHES.values())
    assert f"{len(CLAIMS)}/{len(CLAIMS)} claims reproduced" in out
    assert f"{nrows}/{nrows} floor rows hold" in out
    assert out.count("PASS") == len(CLAIMS) + nrows
    assert "FAIL" not in out


def test_cli_scorecard_reads_the_checkout_from_any_directory(
    capsys, monkeypatch, tmp_path
):
    from repro.cli import main

    monkeypatch.chdir(tmp_path)
    assert main(["scorecard"]) == 0
    assert "no committed record" not in capsys.readouterr().out


def test_scorecard_fails_a_gate_without_its_record():
    from repro.harness.benchkit import Row

    text = render_scorecard([("bench-x (gone.json)", [Row("a", ">", 0)], None)])
    assert "bench-x (gone.json): no committed record -- FAIL" in text
    assert text.endswith("0/1 floor rows hold")

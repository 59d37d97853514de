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
    from repro.cli import main

    assert main(["scorecard"]) == 0
    assert "claims reproduced" in capsys.readouterr().out

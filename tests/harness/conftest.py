"""Fixtures shared by the bench harness tests."""

import pytest

from repro.cli import BENCHES


@pytest.fixture
def scratch_results(tmp_path, monkeypatch):
    """Run in ``tmp_path`` with every bench's default artifact re-pointed
    at ``tmp_path/benchmarks/results``: a smoke-sized ``--json`` run
    without ``-o`` must not overwrite the checkout's committed record."""
    monkeypatch.chdir(tmp_path)
    results = tmp_path / "benchmarks" / "results"
    for name, bench in BENCHES.items():
        monkeypatch.setitem(
            BENCHES, name, bench._replace(artifact=results / bench.artifact.name)
        )
    return results

"""Shared benchmark fixtures and the artifact sink.

Every bench regenerates one paper table/figure and both prints it (run
with ``-s`` to watch) and writes it under ``benchmarks/results/`` so the
artifacts survive the run.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def artifact_sink():
    """Callable writing a named text artifact; returns its path."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _write(name: str, text: str) -> pathlib.Path:
        path = RESULTS_DIR / name
        path.write_text(text + "\n")
        print(f"\n{text}\n[artifact: {path}]")
        return path

    return _write


@pytest.fixture(scope="session")
def run_gate(artifact_sink):
    """Callable running one ``repro.cli.BENCHES`` gate by name; writes its
    JSON record and rendered rows, asserts ``pass`` and that every row
    applies and holds on the record as written, returns the record."""
    from repro.cli import BENCHES
    from repro.harness.benchkit import check_gate, dump_record, render_gate

    def _run(name: str, **run_kwargs) -> dict:
        bench = BENCHES[name]
        result = bench.run(**run_kwargs)
        rendered = render_gate(name, bench.gate, result)
        artifact_sink(bench.artifact.name, dump_record(result))
        artifact_sink(bench.artifact.with_suffix(".txt").name, rendered)
        assert result["pass"], rendered
        assert all(v.ok is True for v in check_gate(bench.gate, result)), (
            rendered
        )
        return result

    return _run


@pytest.fixture(scope="session")
def run_artifact(artifact_sink):
    """Callable regenerating one ``repro.cli.GENERATORS`` paper artifact by
    name into its committed file; returns the text."""
    from repro.cli import GENERATORS

    def _run(name: str) -> str:
        entry = GENERATORS[name]
        text = entry.generate()
        artifact_sink(entry.artifact.name, text)
        return text

    return _run


@pytest.fixture(scope="session")
def small_workload():
    """A shared materialized GPCR workload for the real-bytes benches."""
    from repro.workloads import build_workload

    return build_workload(natoms=8000, nframes=30, seed=0)

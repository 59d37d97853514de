"""Tests for the ``python -m repro`` CLI."""

import inspect
import json
import pathlib

import pytest

from repro.cli import (
    BENCHES,
    COMMANDS,
    GENERATORS,
    build_parser,
    flag_kwargs,
    main,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_list_prints_targets(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert set(out) == set(GENERATORS) | set(BENCHES) | set(COMMANDS)
    assert len(out) == len(set(out))
    parser = build_parser()
    for target in out:  # everything listed is something the parser accepts
        assert parser.parse_args([target]).target == target


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_bench_cli_defaults_are_the_function_defaults(name):
    """No bench flag has an argparse default: an unset flag is not passed,
    so the only default is the one ``run_*_bench``'s signature states."""
    bench = BENCHES[name]
    assert flag_kwargs(build_parser().parse_args([name]), bench.flags) == {}
    parameters = inspect.signature(bench.run).parameters
    assert set(bench.flags.values()) <= set(parameters)
    assert bench.artifact.name == f"BENCH_{name[len('bench-'):]}.json"


def test_artifacts_resolve_under_the_checkout(tmp_path, monkeypatch):
    """A run from any working directory writes the checkout's files."""
    monkeypatch.chdir(tmp_path)
    results = (ROOT / "benchmarks" / "results").resolve()
    paths = [bench.artifact for bench in BENCHES.values()] + [
        entry.artifact for entry in GENERATORS.values() if entry.artifact
    ]
    assert len(paths) > len(BENCHES)
    for path in paths:
        assert path.resolve().parent == results, path


def test_bench_cli_forwards_only_the_flags_given():
    args = build_parser().parse_args(
        ["bench-cluster", "--seed", "0", "--nodes", "1,2", "--zipf", "0.5"]
    )
    assert flag_kwargs(args, BENCHES["bench-cluster"].flags) == {
        "seed": 0, "node_counts": (1, 2), "zipf_s": 0.5,
    }


def test_chaos_without_seed_runs_seed_zero(tmp_path):
    """``--seed`` unset falls through to ``run_chaos``'s own default (0),
    not to the benches' 7 or the trace demo's 11."""
    out = tmp_path / "chaos.json"
    assert main(["chaos", "--json", "--rounds", "1", "-o", str(out)]) == 0
    record = json.loads(out.read_text())
    assert (record["seed"], record["rounds"]) == (0, 1)
    assert record["pass"] is record["identical"] is True


def test_chaos_text_is_its_gate(capsys):
    """``chaos`` runs through the same gate runner as ``bench-*``."""
    assert main(["chaos", "--rounds", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chaos\nrow")
    assert "identical" in out and out.rstrip().endswith("pass: True")


@pytest.mark.parametrize(
    "argv",
    [
        ["bench-ingest", "--window-frames", "0", "--natoms", "300",
         "--nframes", "4"],
        ["bench-insitu", "--depth", "0", "--natoms", "300", "--nframes", "4"],
        ["bench-lod", "--lod-precision", "-1", "--natoms", "200",
         "--nchunks", "4", "--frames-per-chunk", "2"],
        ["bench-codec", "--natoms", "300", "--nframes", "0", "--repeats", "1"],
        ["bench-pipeline", "--window-chunks", "0", "--nchunks", "4",
         "--frames-per-chunk", "2"],
        ["chaos", "--rate", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_a_rejected_argument_exits_2_without_a_traceback(argv, capsys):
    """Exit 1 means "below its floors" or "diverged"; a value the target
    rejects is a usage error: exit 2 and one ``repro: error:`` line."""
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: ")
    assert "Traceback" not in err and "range()" not in err


def test_table2_to_stdout(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "5,006" in out


def test_table6_rows(capsys):
    assert main(["table6"]) == 0
    out = capsys.readouterr().out
    assert "1,876,800" in out
    # ~979.8 GB raw at the kill point (model rounds to ~980).
    assert "980." in out or "979." in out


def test_output_file(tmp_path, capsys):
    target = tmp_path / "t2.txt"
    assert main(["table2", "-o", str(target)]) == 0
    assert "Table 2" in target.read_text()


def test_all_writes_directory(tmp_path):
    """``all`` writes each generator's committed file name (``<name>.txt``
    for a target with none); the fast tables land byte-identical."""
    import repro.cli as cli

    originals = dict(cli.GENERATORS)
    try:
        for name, entry in originals.items():  # keep it cheap
            if name not in ("table2", "table6"):
                cli.GENERATORS[name] = entry._replace(
                    generate=lambda name=name: f"stub {name}"
                )
        assert main(["all", "-d", str(tmp_path)]) == 0
        written = {p.name for p in tmp_path.iterdir()}
        assert written == {
            entry.artifact.name if entry.artifact else f"{name}.txt"
            for name, entry in cli.GENERATORS.items()
        }
        assert "fig8_modeled.txt" in written
        for name in ("table2", "table6"):
            committed = ROOT / originals[name].artifact
            assert (tmp_path / committed.name).read_bytes() == (
                committed.read_bytes()
            )
    finally:
        cli.GENERATORS.clear()
        cli.GENERATORS.update(originals)


@pytest.mark.parametrize(
    "name", sorted(n for n, e in GENERATORS.items() if e.artifact)
)
def test_target_prints_its_committed_artifact(name, capsys):
    """``python -m repro <name>`` is the one generator of its paper file:
    what it prints is the committed file, byte for byte."""
    assert main([name]) == 0
    out = capsys.readouterr().out
    assert out == (ROOT / GENERATORS[name].artifact).read_text()


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_fig7_generator_output():
    text = GENERATORS["fig7"].generate()
    assert "turnaround by frame count" in text
    assert "D-ADA (protein)" in text


def test_calibration_generator_output():
    text = GENERATORS["calibration"].generate()
    assert "compression ratio" in text


# -- observability targets ---------------------------------------------------


@pytest.mark.obs
def test_metrics_selftest_smoke(capsys):
    """CI smoke: the registry and both exporters round-trip their parsers."""
    assert main(["metrics", "--selftest"]) == 0
    assert "metrics selftest: OK" in capsys.readouterr().out


@pytest.mark.obs
def test_metrics_prometheus_export(capsys):
    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    assert "# TYPE retriever_bytes_total counter" in out
    assert "block_cache_hits_total" in out
    from repro.obs.export import parse_prometheus

    parsed = parse_prometheus(out)
    assert parsed["prefetch_issued_total"][()] > 0


@pytest.mark.obs
def test_metrics_json_export(tmp_path):
    import json

    target = tmp_path / "metrics.json"
    assert main(["metrics", "--json", "-o", str(target)]) == 0
    record = json.loads(target.read_text())
    assert record["schema_version"] == 1
    assert {f["name"] for f in record["families"]} >= {
        "device_ops_total", "retry_attempts_total"
    }


@pytest.mark.obs
def test_trace_text_shows_dedup_join(capsys):
    assert main(["trace", "--logical", "trace-demo.xtc", "--tag", "p"]) == 0
    out = capsys.readouterr().out
    assert "ada.fetch_chunks" in out
    assert "retriever.dedup_join" in out
    assert "device.read" in out


@pytest.mark.obs
def test_trace_json_filters(tmp_path):
    import json

    target = tmp_path / "trace.json"
    assert main(
        ["trace", "--json", "--logical", "no-such.xtc", "-o", str(target)]
    ) == 0
    record = json.loads(target.read_text())
    assert record == {"schema_version": 1, "traces": []}

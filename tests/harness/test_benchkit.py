"""The bench kit and the gate table: what the ``bench-*`` harnesses share.

Nothing here runs a bench at full size: the dataset pin is three tiny
chunks, and the artifact and gate checks only read the committed files
under ``benchmarks/results/`` back -- tier-1's hold on every floor.
"""

import copy
import hashlib
import importlib
import inspect
import json
import math
import pathlib

import pytest

from repro.cli import BENCHES
from repro.errors import ConfigurationError
from repro.harness.benchkit import (
    Row,
    check_gate,
    chunk_windows,
    chunked_catalog,
    dump_record,
    gate_pass,
    render_gate,
    seal,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Gates whose record holds simulated seconds only, so the committed file
#: is exactly what a no-argument ``run_*_bench()`` returns on any host.
SIMULATED = sorted(set(BENCHES) - {"bench-codec"})


def test_chunked_catalog_bytes_are_pinned():
    """The kit's dataset is byte-for-byte the one the harnesses' private
    ``_chunked_dataset``/``_catalog_blobs`` built (sha256 taken there)."""
    [(logical, pdb_text, blobs)] = chunked_catalog(1, 200, 3, 4, 7)
    digest = hashlib.sha256(pdb_text.encode())
    for blob in blobs:
        digest.update(blob)
    assert logical == "traj0.xtc"
    assert [len(blob) for blob in blobs] == [10648] * 3
    assert digest.hexdigest() == (
        "aed6e47ff8d5a3696931c16357eec06b6a33c176f560484751c203c775385622"
    )


def test_chunked_catalog_seeds_datasets_consecutively():
    two = chunked_catalog(2, 200, 2, 4, 7)
    assert [logical for logical, _, _ in two] == ["traj0.xtc", "traj1.xtc"]
    assert two[1][1:] == chunked_catalog(1, 200, 2, 4, 8)[0][1:]


def test_chunk_windows_patterns():
    assert chunk_windows(10, 4) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert chunk_windows(10, 4, "backward") == [
        [8, 9], [4, 5, 6, 7], [0, 1, 2, 3]
    ]
    starts = [w[0] for w in chunk_windows(40, 2, "skip")]
    strides = [b - a for a, b in zip(starts, starts[1:])]
    assert strides[:4] == [4, 6, 4, 6]  # no stride ever repeats


@pytest.mark.parametrize("window_chunks", [0, -1])
def test_chunk_windows_rejects_an_empty_window(window_chunks):
    with pytest.raises(ConfigurationError, match="window_chunks"):
        chunk_windows(10, window_chunks)


@pytest.mark.parametrize("name", SIMULATED)
def test_committed_artifact_is_the_default_run(name):
    """Every workload parameter the committed record echoes is the
    signature default: ``pytest benchmarks/bench_*.py`` and a no-flag
    ``python -m repro bench-*`` write the file CI compares against."""
    bench = BENCHES[name]
    workload = json.loads((REPO_ROOT / bench.artifact).read_text())["workload"]
    defaults = {
        key: parameter.default
        for key, parameter in inspect.signature(bench.run).parameters.items()
        if key in workload
    }
    assert len(defaults) >= 4
    for key, default in defaults.items():
        if isinstance(default, tuple):
            default = list(default)
        assert workload[key] == default, key


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_committed_artifact_siblings_agree(name):
    """``BENCH_x.json`` is ``dump_record`` of its record and ``BENCH_x.txt``
    is that record rendered -- for every gate, none missing its sibling."""
    bench = BENCHES[name]
    path = REPO_ROOT / bench.artifact
    text = path.read_text()
    record = json.loads(text)
    assert text == dump_record(record) + "\n"
    rendered = path.with_suffix(".txt").read_text()
    assert rendered == render_gate(name, bench.gate, record) + "\n"


# -- the gates over the committed records -------------------------------------


def _committed(name: str) -> dict:
    return json.loads((REPO_ROOT / BENCHES[name].artifact).read_text())


@pytest.mark.parametrize("name", sorted(BENCHES))
def test_every_row_holds_on_the_committed_record(name):
    """Every row applies to and holds on the committed ``BENCH_*.json``,
    the record's ``pass`` is the gate's, and its ``floors`` are the
    harness's ``FLOORS`` -- so the committed file is what the code gates."""
    bench = BENCHES[name]
    record = _committed(name)
    failed = [v for v in check_gate(bench.gate, record) if v.ok is not True]
    assert not failed, failed
    assert record["pass"] is gate_pass(bench.gate, record) is True
    harness = importlib.import_module(bench.run.__module__)
    assert record["floors"] == harness.FLOORS
    assert bench.gate is harness.GATE


def _just_past(op: str, bound):
    """A measured value that fails ``op bound`` by the least step."""
    if isinstance(bound, bool):
        return not bound
    if op in (">", "<"):
        return bound
    if op == "==":
        return bound + 1
    step = 1 if isinstance(bound, int) else None
    if op == ">=":
        return bound - step if step else math.nextafter(bound, -math.inf)
    return bound + step if step else math.nextafter(bound, math.inf)


def _set_path(record: dict, path: str, value) -> None:
    *parents, leaf = path.split(".")
    for key in parents:
        record = record[key]
    record[leaf] = value


@pytest.mark.parametrize(
    "name,index",
    [(name, i) for name in sorted(BENCHES)
     for i in range(len(BENCHES[name].gate))],
)
def test_each_row_fails_just_past_its_bound(name, index):
    """Push one measured value just past its bound on a copy of the
    committed record: that row fails and ``pass`` flips -- no row is
    vacuous and no comparison points the wrong way."""
    gate = BENCHES[name].gate
    record = copy.deepcopy(_committed(name))
    row, _, bound, _ = check_gate(gate, record)[index]
    _set_path(record, row.path, _just_past(row.op, bound))
    verdicts = check_gate(gate, record)
    assert verdicts[index].ok is False
    assert not gate_pass(gate, record)


def test_a_missing_path_gates_nothing_and_a_none_fails():
    gate = [Row("a.b", ">=", "floors.x"), Row("c", ">", 0)]
    assert [v.ok for v in check_gate(gate, {"floors": {"x": 1}})] == [
        None, None
    ]
    verdicts = check_gate(gate, {"a": {"b": None}, "c": 1, "floors": {"x": 1}})
    assert [v.ok for v in verdicts] == [False, True]
    text = render_gate("t", gate, {"c": 1, "floors": {"x": 1}})
    assert text.splitlines()[0] == "t"
    assert "n/a" in text and text.endswith("pass: True")


@pytest.mark.parametrize("path,raw,places", [
    ("workload.compression_ratio", 3.4496, 3),  # bench-codec, >= 3.45
    ("speedup_vs_post_hoc", 1.0196, 2),  # bench-insitu, >= 1.02
])
def test_seal_gates_the_raw_value_then_rounds_it(path, raw, places):
    """A value half a digit short of its floor fails, though the rounded
    value the artifact records would hold."""
    name = "bench-codec" if path.startswith("workload") else "bench-insitu"
    gate = BENCHES[name].gate
    record = copy.deepcopy(_committed(name))
    _set_path(record, path, raw)
    seal(gate, record, {path: places})
    assert record["pass"] is False
    assert all(v.ok for v in check_gate(gate, record))

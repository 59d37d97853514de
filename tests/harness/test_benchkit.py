"""The bench kit and the gate table: what the ``bench-*`` harnesses share.

Nothing here runs a bench at full size: the dataset pin is three tiny
chunks, and the artifact checks only read the committed files under
``benchmarks/results/`` back.
"""

import hashlib
import inspect
import json
import pathlib

import pytest

from repro.cli import BENCHES
from repro.harness.benchkit import (
    chunk_windows,
    chunked_catalog,
    dump_record,
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
    assert rendered == bench.render(record) + "\n"

"""Tests for CSV figure-data export."""

import csv
import io

from repro.harness import run_sweep, ssd_server
from repro.cli import CSV_FIELDS, results_to_csv


def test_csv_shape_and_fields():
    results = run_sweep(
        ssd_server, (626, 1_251), scenario_keys=("C-trad", "D-ada-p")
    )
    text = results_to_csv(results, fs_label="ext4")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 4
    assert set(rows[0]) == set(CSV_FIELDS)
    assert rows[0]["scenario_label"] == "C-ext4"


def test_csv_values_parse_back():
    results = run_sweep(ssd_server, (626,), scenario_keys=("C-trad",))
    rows = list(csv.DictReader(io.StringIO(results_to_csv(results))))
    row = rows[0]
    assert int(row["nframes"]) == 626
    assert float(row["turnaround_s"]) > float(row["retrieval_s"]) > 0
    assert int(row["killed"]) == 0
    assert row["killed_phase"] == ""


def test_csv_killed_rows_marked():
    from repro.harness import fat_node

    results = run_sweep(fat_node, (1_876_800,), scenario_keys=("C-trad",))
    rows = list(csv.DictReader(io.StringIO(results_to_csv(results))))
    assert int(rows[0]["killed"]) == 1
    assert rows[0]["killed_phase"] == "decompress"


def test_cli_csv_target(capsys):
    from repro.cli import main

    assert main(["fig7-csv"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert header.startswith("scenario,")
    assert out.count("\n") >= 32  # 4 scenarios x 8 frame counts

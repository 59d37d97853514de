"""The line ledger: ``src/repro`` may not grow without saying why.

ROADMAP item 6 asks that a perf PR be line-neutral under ``src/`` and
that a PR adding code say what the lines buy.  This file is that rule as
a test, beside the knob ledger (``tests/test_knob_ledger.py``): the total
``wc -l`` of ``src/repro/**/*.py`` must stay within the committed
``BUDGET``.  Deleting code never fails it (lower ``BUDGET`` when you do,
so the slack does not become someone else's allowance).
"""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Lines under ``src/repro`` allowed: raised by exactly a PR's net growth,
#: lowered when it deletes.
BUDGET = 21780


def test_source_lines_stay_within_the_budget():
    total = sum(
        path.read_bytes().count(b"\n") for path in SRC.rglob("*.py")
    )
    assert total <= BUDGET, (
        f"src/repro is {total} lines, budget {BUDGET}: edit BUDGET and "
        "say in CHANGES.md what the lines buy"
    )

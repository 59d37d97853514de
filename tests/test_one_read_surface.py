"""One way to write a counter, one way to read it -- held by the AST.

Every count lives in ``repro.obs.MetricsRegistry``: writers hold their
metric objects and call ``inc``/``set``/``observe``; readers go through
``MetricsRegistry.value``/``query``.  This guard keeps the second surface
from growing back: no attribute-view descriptor, no ``stats()``/
``*_stats()``/``fault_counters()`` dict builder beyond ``ADA.stats()``
(which ``benchmarks/e2e`` still reads), and no ``+=`` on a metric.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The one snapshot method that stays: ``benchmarks/e2e/workloads.py``
#: reads ``ADA.stats()["ingest"]``.
KEPT = {("core/middleware.py", "ADA", "stats")}


#: The deleted descriptor factory (spelled apart so a grep for it across
#: src/tests/docs stays empty).
VIEW = "metric" + "_view"


def _is_stats_name(name: str) -> bool:
    return name == "stats" or name.endswith("_stats") or name == "fault_counters"


def test_no_second_read_or_write_surface_under_src():
    snapshot_methods = set()
    offences = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id == VIEW:
                offences.append(f"{rel}:{node.lineno}: {VIEW}")
            if isinstance(node, ast.AugAssign) and rel != "obs/metrics.py":
                target = node.target
                if isinstance(target, ast.Attribute) and target.attr in (
                    "value", "_value"
                ):
                    offences.append(f"{rel}:{node.lineno}: += on a metric")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ) and _is_stats_name(item.name):
                    snapshot_methods.add((rel, node.name, item.name))
    assert not offences, "\n".join(offences)
    assert snapshot_methods == KEPT, (
        "a stats()-family method appeared or vanished; every count is read "
        "through MetricsRegistry.value/query: "
        f"{sorted(snapshot_methods ^ KEPT)}"
    )

"""Paper-shaped text reporting.

:class:`Table` renders aligned monospace tables; :func:`series_pivot`
reshapes a sweep's results into one row per frame count with one column per
scenario -- the same layout the paper's figures plot.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence

from repro.harness.scenarios import SCENARIOS, RunResult
from repro.units import fmt_bytes, fmt_seconds, to_gb, to_kj, to_mb

__all__ = ["Table", "series_pivot", "METRICS"]


class Table:
    """Minimal aligned-text table."""

    def __init__(self, headers: Sequence[str], title: str = ""):
        self.title = title
        self.headers = [str(h) for h in headers]
        self.rows: List[List[str]] = []

    def add_row(self, *cells) -> None:
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            widths = [max(w, len(c)) for w, c in zip(widths, row)]
        lines = []
        if self.title:
            lines.append(self.title)
        fmt = "  ".join(f"{{:<{w}}}" for w in widths)
        lines.append(fmt.format(*self.headers))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append(fmt.format(*row))
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


#: metric key -> (column label, value extractor, formatter)
METRICS: Dict[str, tuple] = {
    "retrieval": (
        "retrieval",
        lambda r: r.retrieval_s,
        fmt_seconds,
    ),
    "turnaround": (
        "turnaround",
        lambda r: r.turnaround_s,
        fmt_seconds,
    ),
    "memory": (
        "peak memory",
        lambda r: r.peak_memory_nbytes,
        fmt_bytes,
    ),
    "energy": (
        "energy",
        lambda r: r.energy_j,
        lambda j: f"{to_kj(j):,.0f} kJ",
    ),
    "loaded": (
        "loaded size",
        lambda r: r.loaded_nbytes,
        fmt_bytes,
    ),
}


def series_pivot(
    results: Iterable[RunResult],
    metric: str,
    fs_label: str = "FS",
) -> Table:
    """Pivot sweep results: rows = frame counts, columns = scenarios.

    Killed points render as ``killed`` -- the truncated series of Fig. 10.
    """
    label, extract, fmt = METRICS[metric]
    results = list(results)
    keys = sorted({r.scenario for r in results}, key=list(SCENARIOS).index)
    frame_counts = sorted({r.nframes for r in results})
    by_cell = {(r.scenario, r.nframes): r for r in results}
    table = Table(
        headers=["frames"] + [SCENARIOS[k].display(fs_label) for k in keys],
        title=f"{label} by frame count",
    )
    for nframes in frame_counts:
        cells = [f"{nframes:,}"]
        for key in keys:
            r = by_cell.get((key, nframes))
            if r is None:
                cells.append("-")
            elif r.killed:
                cells.append(f"killed@{r.killed_phase}")
            else:
                cells.append(fmt(extract(r)))
        table.add_row(*cells)
    return table

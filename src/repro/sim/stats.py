"""Measurement primitives for simulation runs.

:class:`BusyTracker` records the intervals during which a component (CPU,
disk, NIC) is active; the cluster energy model integrates these intervals
against per-component active power to reproduce the paper's Fig. 10d energy
measurements.  (Counters, gauges and histograms live in
:mod:`repro.obs.metrics`.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["BusyTracker"]


@dataclass
class BusyTracker:
    """Accumulates labeled busy intervals for one component.

    Intervals may be recorded out of order but must not be negative.  Overlap
    is permitted (a striped device doing two concurrent transfers) -- the
    :meth:`busy_time` accumulator counts *work* seconds, while
    :meth:`union_time` merges overlaps to get wall-clock occupancy, which is
    what the power model wants.
    """

    name: str = "component"
    intervals: List[Tuple[float, float, str]] = field(default_factory=list)

    def record(self, start: float, end: float, label: str = "") -> None:
        """Record activity on ``[start, end]`` tagged with ``label``."""
        if end < start:
            raise ValueError(f"negative interval [{start}, {end}] on {self.name!r}")
        self.intervals.append((float(start), float(end), label))

    def busy_time(self, label: str = None) -> float:
        """Total work-seconds recorded (optionally for one label only)."""
        return sum(
            end - start
            for start, end, lab in self.intervals
            if label is None or lab == label
        )

    def union_time(self) -> float:
        """Wall-clock seconds during which the component was active at all."""
        if not self.intervals:
            return 0.0
        spans = sorted((s, e) for s, e, _ in self.intervals)
        total = 0.0
        cur_s, cur_e = spans[0]
        for s, e in spans[1:]:
            if s > cur_e:
                total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        total += cur_e - cur_s
        return total

    def by_label(self) -> Dict[str, float]:
        """Work-seconds per label."""
        out: Dict[str, float] = {}
        for start, end, label in self.intervals:
            out[label] = out.get(label, 0.0) + (end - start)
        return out

    def last_end(self) -> float:
        """Latest interval end (0.0 if nothing recorded)."""
        return max((end for _, end, _ in self.intervals), default=0.0)

    def clear(self) -> None:
        self.intervals.clear()

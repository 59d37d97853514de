"""Reproduction scorecard: every headline claim, checked in one pass.

``python -m repro scorecard`` runs each of the paper's quantitative claims
against the model and prints PASS/FAIL with the measured value -- the
machine-checkable version of EXPERIMENTS.md.  Each paper band is stated
here and nowhere else: tier-1 checks every :data:`CLAIMS` entry by key
(``tests/harness/test_scorecard.py``), and the figure benches only
regenerate their artifacts.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, List, NamedTuple, Tuple

from repro.harness.calibration import measure_calibration
from repro.harness.platforms import fat_node, small_cluster, ssd_server
from repro.harness.profilecpu import modeled_cpu_profile
from repro.harness.report import Table
from repro.harness.runner import run_point, run_sweep
from repro.units import GB, MB, to_kj
from repro.workloads import FAT_NODE_FRAME_COUNTS, SSD_SERVER_FRAME_COUNTS, SizingModel

__all__ = ["Claim", "CLAIMS", "render_scorecard"]


class Claim(NamedTuple):
    """One quantitative statement from the paper."""

    key: str
    source: str  # where in the paper
    statement: str
    check: Callable[[], Tuple[str, bool]]  # -> (measured, passed)


#: Tables 2 and 6 as printed: frames -> (compressed, protein, raw).
TABLE2_MB = {
    626: (100, 139, 327), 1_251: (200, 277, 653), 1_877: (300, 416, 980),
    2_503: (400, 555, 1_306), 3_129: (500, 693, 1_632),
    3_754: (600, 832, 1_959), 4_380: (700, 970, 2_285),
    5_006: (800, 1_108, 2_612),
}
TABLE6_GB = {
    62_560: (10, 13.9, 32.7), 625_600: (100, 138.6, 326.6),
    1_876_800: (300, 415.8, 979.8), 5_004_800: (800, 1_108.8, 2_612.8),
}

#: ``(scenario_key, nframes) -> RunResult`` on each testbed.
_ssd = partial(run_point, ssd_server)
_cluster = partial(run_point, small_cluster)
_fat = partial(run_point, fat_node)


def _band(value, low=-math.inf, high=math.inf, fmt="{:.2f}x"):
    """``(measured, passed)`` for ``low < value < high``."""
    return fmt.format(value), low < value < high


def _ratio(run, nframes, metric, num, den) -> float:
    """``num``'s ``metric`` over ``den``'s, both at ``nframes``."""
    return getattr(run(num, nframes), metric) / getattr(run(den, nframes), metric)


def _rising(run, nframes, metric, *keys):
    """``(measured, passed)``: ``metric`` strictly rises along ``keys``."""
    values = [getattr(run(key, nframes), metric) for key in keys]
    ok = all(a < b for a, b in zip(values, values[1:]))
    return " < ".join(f"{v:.3g}" for v in values), ok


def _worst_row_error(printed, unit) -> float:
    """Largest relative miss of the sizing model against a printed table."""
    worst = 0.0
    for nframes, row in printed.items():
        d = SizingModel.paper().dataset(nframes)
        sizes = (d.compressed_nbytes, d.protein_nbytes, d.raw_nbytes)
        for size, paper in zip(sizes, row):
            worst = max(worst, abs(size - paper * unit) / (paper * unit))
    return worst


def _protein_fraction_error() -> float:
    report = measure_calibration()
    return abs(report.measured.protein_fraction - report.paper.protein_fraction)


def _cluster_gap(nframes: int) -> float:
    """C-PVFS turnaround minus D-ADA(protein)'s."""
    c, p = (_cluster(key, nframes).turnaround_s for key in ("C-trad", "D-ada-p"))
    return c - p


def _retrieval_share(r) -> float:
    return r.retrieval_s / r.turnaround_s


def _fat_node_series():
    """Fig. 10's sweep: one list of points per scenario, in frame order."""
    keys = ("C-trad", "D-ada-all", "D-ada-p")
    sweep = run_sweep(fat_node, FAT_NODE_FRAME_COUNTS, keys)
    return [[r for r in sweep if r.scenario == key] for key in keys]


def _fig10_kills():
    first, monotone = [], True
    for series in _fat_node_series():
        first.append(min((r.nframes for r in series if r.killed), default=0))
        alive = [r.peak_memory_nbytes for r in series if not r.killed]
        monotone = monotone and alive == sorted(alive)
    ok = first == [1_876_800, 1_876_800, 5_004_800] and monotone
    return f"first kills {first}, monotone={monotone}", ok


def _fig10_2x_graphs():
    xfs, _, ada = (
        max(r.nframes for r in series if not r.killed)
        for series in _fat_node_series()
    )
    at_2x = not _fat("D-ada-p", 2 * 1_876_800).killed
    ok = xfs >= 1_564_000 and ada > 2 * xfs and at_2x
    return f"XFS {xfs:,} frames, ADA {ada:,}", ok


CLAIMS: List[Claim] = [
    Claim("table2-sizes", "Table 2",
          "every printed row (compressed / protein / raw MB) within 1.5%",
          lambda: _band(_worst_row_error(TABLE2_MB, MB), high=0.015,
                        fmt="worst row {:.2%} off")),
    Claim("table6-sizes", "Table 6",
          "every printed row (compressed / protein / raw GB) within 1.5%",
          lambda: _band(_worst_row_error(TABLE6_GB, GB), high=0.015,
                        fmt="worst row {:.2%} off")),
    Claim("calibration-protein", "Table 2",
          "the live generator's protein fraction within 0.05 of the paper's",
          lambda: _band(_protein_fraction_error(), high=0.05,
                        fmt="off by {:.3f}")),
    Claim("fig7a-ordering", "Fig. 7a",
          "retrieval: C-ext4 < ADA(protein) < D-ext4 < ADA(all)",
          lambda: _rising(_ssd, 5_006, "retrieval_s",
                          "C-trad", "D-ada-p", "D-trad", "D-ada-all")),
    Claim("fig7a-ada-all", "Fig. 7a",
          "D-ADA(all) retrieval within 20% of D-ext4's",
          lambda: _band(_ratio(_ssd, 5_006, "retrieval_s",
                               "D-ada-all", "D-trad"), high=1.2)),
    Claim("fig7b-13.4x", "Fig. 7b / abstract",
          "turnaround up to 13.4x better than C-ext4",
          lambda: _band(_ratio(_ssd, 5_006, "turnaround_s",
                               "C-trad", "D-ada-p"), 11.0, 16.0)),
    Claim("fig7b-ada-all", "Fig. 7b",
          "D-ADA(all) performs the same as D-ext4",
          lambda: _band(_ratio(_ssd, 5_006, "turnaround_s",
                               "D-ada-all", "D-trad"), 0.95, 1.05)),
    Claim("fig7b-widening", "Fig. 7b",
          "the C-ext4 / ADA(protein) ratio grows from 626 to 5,006 frames",
          lambda: _band(
              _ratio(_ssd, 5_006, "turnaround_s", "C-trad", "D-ada-p")
              / _ratio(_ssd, 626, "turnaround_s", "C-trad", "D-ada-p"),
              1.0, fmt="{:.4f}x")),
    Claim("fig7c-2.5x", "Fig. 7c / abstract",
          "ext4 memory usage over 2.5x ADA's",
          lambda: _band(_ratio(_ssd, 5_006, "peak_memory_nbytes",
                               "C-trad", "D-ada-p"), 2.5)),
    Claim("fig7-no-kills", "Fig. 7",
          "no scenario is killed anywhere on the SSD-server sweep",
          lambda: _band(
              sum(r.killed for r in run_sweep(ssd_server,
                                              SSD_SERVER_FRAME_COUNTS)),
              high=1, fmt="{} killed")),
    Claim("fig8-50pct", "Fig. 8",
          "decompression >50% of the CPU burst",
          lambda: _band(modeled_cpu_profile(5_006, "C-trad")
                        .fraction("decompress"), 0.5, fmt="{:.0%}")),
    Claim("fig8-ada-cpu", "Fig. 8",
          "ADA(protein)'s CPU burst under half the traditional one",
          lambda: _band(modeled_cpu_profile(5_006, "D-ada-p").total
                        / modeled_cpu_profile(5_006, "C-trad").total, high=0.5)),
    Claim("fig9a-2x", "Fig. 9a",
          "ADA retrieval >2x better than PVFS",
          lambda: _band(_ratio(_cluster, 6_256, "retrieval_s",
                               "D-trad", "D-ada-all"), 2.0)),
    Claim("fig9a-ordering", "Fig. 9a",
          "retrieval: ADA(protein) < ADA(all) < D-PVFS",
          lambda: _rising(_cluster, 6_256, "retrieval_s",
                          "D-ada-p", "D-ada-all", "D-trad")),
    Claim("fig9b-9x", "Fig. 9b",
          "D-PVFS turnaround 9x D-ADA(protein) at 6,256 frames",
          lambda: _band(_ratio(_cluster, 6_256, "turnaround_s",
                               "D-trad", "D-ada-p"), 7.0, 12.0)),
    Claim("fig9b-c-worst", "Fig. 9b",
          "C-PVFS turnaround worse than D-PVFS at 6,256 frames",
          lambda: _band(_ratio(_cluster, 6_256, "turnaround_s",
                               "C-trad", "D-trad"), 1.0)),
    Claim("fig9b-widening", "Fig. 9b / §4.2",
          "the C-PVFS - ADA(protein) gap grows >5x from 626 to 6,256 frames",
          lambda: _band(_cluster_gap(6_256) / _cluster_gap(626), 5.0)),
    Claim("fig9c-2.5x", "Fig. 9c",
          "same memory trend as Fig. 7c: C-PVFS over 2.5x ADA's",
          lambda: _band(_ratio(_cluster, 6_256, "peak_memory_nbytes",
                               "C-trad", "D-ada-p"), 2.5)),
    Claim("fig9c-same-memory", "Fig. 9c",
          "C-PVFS memory within 1% of C-ext4's at 5,006 frames",
          lambda: _band(_cluster("C-trad", 5_006).peak_memory_nbytes
                        / _ssd("C-trad", 5_006).peak_memory_nbytes,
                        0.99, 1.01, fmt="{:.4f}x")),
    Claim("fig10-kills", "Fig. 10",
          "first OOM kills at 1,876,800 (XFS, ADA-all) and 5,004,800 "
          "(ADA-protein); memory rises until then", _fig10_kills),
    Claim("fig10-2x-graphs", "abstract",
          "1TB server renders more than 2x VMD graphs with ADA",
          _fig10_2x_graphs),
    Claim("fig10a-10pct", "§4.3",
          "raw retrieval <10% of turnaround at 1,564,000 frames",
          lambda: _band(_retrieval_share(_fat("C-trad", 1_564_000)),
                        high=0.10, fmt="{:.1%}")),
    Claim("fig10d-3x", "Fig. 10d / abstract",
          "XFS consumes more than 3x energy compared to ADA",
          lambda: _band(_ratio(_fat, 1_564_000, "energy_j",
                               "C-trad", "D-ada-p"), 3.0)),
    Claim("fig10d-ada-all", "Fig. 10d",
          "XFS consumes more than 2x energy compared to ADA(all)",
          lambda: _band(_ratio(_fat, 1_564_000, "energy_j",
                               "C-trad", "D-ada-all"), 2.0)),
    Claim("fig10d-xfs-kj", "Fig. 10d",
          "XFS over 10,000 kJ at 1,564,000 frames",
          lambda: _band(to_kj(_fat("C-trad", 1_564_000).energy_j), 10_000,
                        fmt="{:,.0f} kJ")),
    Claim("fig10d-ada-all-kj", "Fig. 10d",
          "D-ADA(all) under 5,000 kJ at 1,564,000 frames",
          lambda: _band(to_kj(_fat("D-ada-all", 1_564_000).energy_j),
                        high=5_000, fmt="{:,.0f} kJ")),
]


def render_scorecard() -> str:
    """Evaluate every claim into a printable table plus a verdict line."""
    rows = [(claim, *claim.check()) for claim in CLAIMS]
    table = Table(
        ["claim", "source", "paper statement", "measured", "verdict"],
        title="Reproduction scorecard",
    )
    for claim, measured, passed in rows:
        table.add_row(
            claim.key, claim.source, claim.statement, measured,
            "PASS" if passed else "FAIL",
        )
    passed = sum(1 for _, _, ok in rows if ok)
    return f"{table.render()}\n\n{passed}/{len(rows)} claims reproduced"

"""Chaos harness: the full ADA pipeline under seeded fault injection.

One :func:`run_chaos` call builds the same workload twice -- once on a
fault-free two-tier deployment, once with a transient-only
:class:`~repro.faults.plan.FaultPlan` attached to every file system and
device -- drives ingest plus several rounds of tag-selective and full
reads through each, and compares SHA-256 digests of every byte the
application saw.  With retries enabled the digests must match: transient
faults (latency spikes, dropped operations, in-flight bit flips, short
reads) are recovered exactly, which is the end-to-end property the chaos
test suite (``tests/faults/``) asserts across seeds.

Everything is deterministic -- the DES, the fault streams, the backoff
jitter -- so ``python -m repro chaos --seed N`` replays bit-for-bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core import ADA
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.fs.localfs import LocalFS
from repro.harness.report import Table
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

__all__ = ["ChaosReport", "run_chaos", "render_chaos"]

#: Retry budget for chaos runs: generous enough that back-to-back transient
#: faults at the sweep's rates never exhaust (each extra retry multiplies
#: the residual failure probability by the per-op fault rate).
DEFAULT_MAX_RETRIES = 8


@dataclass
class ChaosReport:
    """Outcome of one seeded chaos run."""

    seed: int
    transient_rate: float
    rounds: int
    natoms: int
    nframes: int
    identical: bool
    baseline_digest: str
    faulted_digest: str
    #: The faulted run's ``retry_*`` series (``metrics.query("retry_")``).
    counters: Dict[str, object] = field(default_factory=dict)
    degraded_reads: int = 0
    injected_total: int = 0
    sim_time_baseline_s: float = 0.0
    sim_time_faulted_s: float = 0.0
    #: Structured snapshot of the faulted run's metrics registry (the
    #: same payload ``python -m repro metrics --json`` exports).
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def retries(self) -> int:
        return int(self.counters.get("retry_retries_total", 0))

    def as_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "transient_rate": self.transient_rate,
            "rounds": self.rounds,
            "natoms": self.natoms,
            "nframes": self.nframes,
            "identical": self.identical,
            "baseline_digest": self.baseline_digest,
            "faulted_digest": self.faulted_digest,
            "counters": self.counters,
            "degraded_reads": self.degraded_reads,
            "injected_total": self.injected_total,
            "sim_time_baseline_s": self.sim_time_baseline_s,
            "sim_time_faulted_s": self.sim_time_faulted_s,
            "metrics": self.metrics,
        }


def _build_ada(sim: Simulator, plan: Optional[FaultPlan], seed: int,
               max_retries: int, timeout_s: Optional[float]) -> ADA:
    """Two-tier deployment (NVMe active, WD rotating inactive)."""
    backends = {
        "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
        "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
    }
    return ADA(
        sim,
        backends=backends,
        retry_policy=RetryPolicy(
            max_retries=max_retries, timeout_s=timeout_s, seed=seed
        ),
        fault_plan=plan,
    )


def _drive(ada: ADA, logical: str, pdb_text: str, xtc_blob: bytes,
           rounds: int) -> str:
    """Ingest, then ``rounds`` of tag-selective + full reads; digest all."""
    sim = ada.sim
    digest = hashlib.sha256()
    sim.run_process(ada.ingest(logical, pdb_text, xtc_blob))
    for _ in range(rounds):
        for tag in ada.tags(logical):
            obj = sim.run_process(ada.fetch(logical, tag))
            digest.update(tag.encode())
            digest.update(obj.data)
        objs = sim.run_process(ada.fetch_all(logical))
        for tag in sorted(objs):
            digest.update(tag.encode())
            digest.update(objs[tag].data)
    return digest.hexdigest()


def run_chaos(
    seed: int = 0,
    transient_rate: float = 0.05,
    rounds: int = 3,
    natoms: int = 600,
    nframes: int = 4,
    max_retries: int = DEFAULT_MAX_RETRIES,
    timeout_s: Optional[float] = None,
) -> ChaosReport:
    """Run the ingest -> tag-selective-read pipeline with and without faults.

    Returns a :class:`ChaosReport`; ``report.identical`` is the headline:
    under transient-only injection at ``transient_rate`` with retries
    enabled, every byte the application reads must equal the fault-free
    run's.
    """
    workload = build_workload(natoms=natoms, nframes=nframes, seed=seed)
    logical = "chaos.xtc"

    baseline_sim = Simulator()
    baseline = _build_ada(baseline_sim, None, seed, max_retries, timeout_s)
    baseline_digest = _drive(
        baseline, logical, workload.pdb_text, workload.xtc_blob, rounds
    )

    plan = FaultPlan.transient_only(seed=seed, rate=transient_rate)
    faulted_sim = Simulator()
    faulted = _build_ada(faulted_sim, plan, seed, max_retries, timeout_s)
    faulted_digest = _drive(
        faulted, logical, workload.pdb_text, workload.xtc_blob, rounds
    )

    return ChaosReport(
        seed=seed,
        transient_rate=transient_rate,
        rounds=rounds,
        natoms=natoms,
        nframes=nframes,
        identical=baseline_digest == faulted_digest,
        baseline_digest=baseline_digest,
        faulted_digest=faulted_digest,
        counters=faulted.metrics.query("retry_"),
        degraded_reads=len(faulted.degraded),
        injected_total=plan.total(),
        sim_time_baseline_s=baseline_sim.now,
        sim_time_faulted_s=faulted_sim.now,
        metrics=faulted.metrics.to_json(),
    )


def render_chaos(report: ChaosReport) -> str:
    """Paper-style table of one chaos run."""
    def retry(field):
        return report.counters.get(f"retry_{field}_total", 0)

    table = Table(
        ["metric", "value"],
        title=(
            f"Chaos run: seed={report.seed}, "
            f"transient rate {report.transient_rate:.1%}, "
            f"{report.rounds} read round(s)"
        ),
    )
    table.add_row(
        "bit-identical to fault-free",
        "YES" if report.identical else "NO (DATA DIVERGED)",
    )
    table.add_row("digest", report.faulted_digest[:16] + "...")
    table.add_row("faults injected", f"{report.injected_total}")
    table.add_row("attempts", f"{retry('attempts')}")
    table.add_row("retries", f"{retry('retries')}")
    table.add_row("recovered ops", f"{retry('recovered')}")
    table.add_row("corruption detected", f"{retry('corruption_detected')}")
    table.add_row("timeouts", f"{retry('timeouts')}")
    table.add_row("backoff (sim s)", f"{retry('backoff_s'):.6f}")
    table.add_row("degraded reads", f"{report.degraded_reads}")
    table.add_row("sim time, fault-free", f"{report.sim_time_baseline_s:.4f} s")
    table.add_row("sim time, faulted", f"{report.sim_time_faulted_s:.4f} s")
    return table.render()

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
from typing import Dict, Optional

from repro.core import ADA
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.fs.localfs import LocalFS
from repro.harness.benchkit import Row, gate_pass
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

__all__ = ["GATE", "run_chaos"]

#: Retry budget for chaos runs: generous enough that back-to-back transient
#: faults at the sweep's rates never exhaust (each extra retry multiplies
#: the residual failure probability by the per-op fault rate).
DEFAULT_MAX_RETRIES = 8

#: What ``pass`` requires: the application read what a fault-free run read.
GATE = [Row("identical", "==", True)]


def _build_ada(sim: Simulator, plan: Optional[FaultPlan], seed: int,
               max_retries: int) -> ADA:
    """Two-tier deployment (NVMe active, WD rotating inactive)."""
    backends = {
        "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
        "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
    }
    ada = ADA(
        sim,
        backends=backends,
        retry_policy=RetryPolicy(max_retries=max_retries, seed=seed),
    )
    if plan is not None:
        plan.attach_to(ada)
    return ada


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
) -> Dict[str, object]:
    """Run the ingest -> tag-selective-read pipeline with and without faults.

    Returns the record; ``identical`` is the headline (and ``pass``):
    under transient-only injection at ``transient_rate`` with retries
    enabled, every byte the application reads must equal the fault-free
    run's.  ``counters`` is the faulted run's ``retry_*`` series and
    ``metrics`` its whole registry snapshot.
    """
    workload = build_workload(natoms=natoms, nframes=nframes, seed=seed)
    logical = "chaos.xtc"

    baseline_sim = Simulator()
    baseline = _build_ada(baseline_sim, None, seed, max_retries)
    baseline_digest = _drive(
        baseline, logical, workload.pdb_text, workload.xtc_blob, rounds
    )

    plan = FaultPlan.transient_only(seed=seed, rate=transient_rate)
    faulted_sim = Simulator()
    faulted = _build_ada(faulted_sim, plan, seed, max_retries)
    faulted_digest = _drive(
        faulted, logical, workload.pdb_text, workload.xtc_blob, rounds
    )

    record = {
        "seed": seed,
        "transient_rate": transient_rate,
        "rounds": rounds,
        "natoms": natoms,
        "nframes": nframes,
        "identical": baseline_digest == faulted_digest,
        "baseline_digest": baseline_digest,
        "faulted_digest": faulted_digest,
        "counters": faulted.metrics.query("retry_"),
        "degraded_reads": len(faulted.degraded),
        "injected_total": plan.total(),
        "sim_time_baseline_s": baseline_sim.now,
        "sim_time_faulted_s": faulted_sim.now,
    }
    record["pass"] = gate_pass(GATE, record)
    record["metrics"] = faulted.metrics.to_json()
    return record

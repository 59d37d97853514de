"""Multi-tenant serving benchmark: latency and fairness under contention.

``run_serve_bench`` stands up one shared ADA deployment behind the
:class:`~repro.serve.ServeFront` and drives it with deterministic
synthetic traffic (closed/open loop, Zipf-hot dataset popularity --
see :mod:`repro.serve.traffic`) in three scenarios:

* ``solo``      -- tenant ``t0`` runs its closed-loop workload alone:
                   the uncontended latency baseline;
* ``contended`` -- ``ntenants`` tenants run the *same per-tenant*
                   closed-loop workload concurrently over the shared
                   cache, prefetcher, and scheduler: where fairness is
                   measured (Jain index over per-tenant served bytes)
                   and where the p99 blow-up is gated;
* ``open_loop`` -- Poisson arrivals that ignore completions, so queues
                   build and the per-tenant admission gate (max
                   in-flight) actually rejects work.

All timings are **simulated** seconds, so the record is bit-reproducible
and the CI smoke test can gate the floors without flaking.  The record
lands at ``benchmarks/results/BENCH_serve.json`` (``python -m repro
bench-serve --json``); ``FLOORS`` holds the regression gate.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.harness.benchkit import (
    PLAYBACK_TAG,
    chunked_catalog,
    hdd_ada,
    ingest_chunks,
    jain_index,
    percentile,
    run_traffic,
)
from repro.serve import DatasetRef, ServeFront, TenantBlockCache, TrafficConfig
from repro.sim import Simulator
from repro.units import KiB, MiB

# ``percentile``/``jain_index``/``PLAYBACK_TAG`` are re-exported from the kit:
# ``benchmarks/e2e/run.py`` imports the first two from this module.
__all__ = [
    "FLOORS",
    "PLAYBACK_TAG",
    "build_front",
    "jain_index",
    "percentile",
    "render_serve_bench",
    "run_serve_bench",
]

SCHEMA_VERSION = 1

#: Regression gates the bench (and the ``-m bench`` smoke test) enforces.
FLOORS = {
    "jain_fairness": 0.90,  # contended byte shares stay near-equal
    "p99_slowdown_vs_solo": 8.0,  # contended p99 within 8x uncontended
}


def build_front(
    blobs: List[Tuple[str, str, List[bytes]]],
    ntenants: int,
    concurrency: int,
    l1_capacity_bytes: float,
    max_inflight: int,
    byte_budget: Optional[int],
    fault_plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> ServeFront:
    """Fresh deployment: ingest the catalog, register ``ntenants``.

    Every tenant gets an equal L1 reservation of half the cache (the
    other half is the reclaimable shared pool) and a modest speculative
    budget, so the fair-share machinery is actually load-bearing.
    """
    sim = Simulator()
    cache = TenantBlockCache(
        sim,
        l1_capacity_bytes=l1_capacity_bytes,
        l2_capacity_bytes=4 * l1_capacity_bytes,
    )
    ada = hdd_ada(sim, block_cache=cache, prefetch=True)
    for logical, pdb_text, chunks in blobs:
        ingest_chunks(ada, logical, pdb_text, chunks)
    front = ServeFront(
        ada,
        concurrency=concurrency,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    quota = l1_capacity_bytes / (2 * max(1, ntenants))
    for index in range(ntenants):
        front.register(
            f"t{index}",
            max_inflight=max_inflight,
            byte_budget=byte_budget,
            cache_quota_bytes=int(quota),
            prefetch_budget_bytes=int(quota),
        )
    return front


def run_serve_bench(
    ntenants: int = 8,
    ndatasets: int = 4,
    natoms: int = 600,
    nchunks: int = 12,
    frames_per_chunk: int = 8,
    window_chunks: int = 4,
    requests_per_tenant: int = 24,
    concurrency: int = 4,
    max_inflight: int = 4,
    l1_capacity_kib: int = 512,
    zipf_s: float = 1.1,
    seed: int = 7,
) -> dict:
    """Measure the three serving scenarios; returns the JSON record."""
    if ntenants < 2:
        raise ValueError("serve bench needs >= 2 tenants")
    blobs = chunked_catalog(ndatasets, natoms, nchunks, frames_per_chunk, seed)
    catalog = [
        DatasetRef(logical=logical, tag=PLAYBACK_TAG, nchunks=nchunks)
        for logical, _, _ in blobs
    ]
    l1_capacity = float(l1_capacity_kib) * KiB
    tenants = [f"t{i}" for i in range(ntenants)]

    def fresh_front() -> ServeFront:
        return build_front(
            blobs,
            ntenants=ntenants,
            concurrency=concurrency,
            l1_capacity_bytes=l1_capacity,
            max_inflight=max_inflight,
            byte_budget=None,
        )

    closed = TrafficConfig(
        mode="closed",
        requests_per_tenant=requests_per_tenant,
        window_chunks=window_chunks,
        zipf_s=zipf_s,
        seed=seed,
    )
    open_loop = TrafficConfig(
        mode="open",
        requests_per_tenant=requests_per_tenant,
        window_chunks=window_chunks,
        arrival_rate_hz=400.0,
        zipf_s=zipf_s,
        seed=seed,
    )

    solo_front = fresh_front()
    solo = run_traffic(solo_front, tenants[:1], catalog, closed)

    contended_front = fresh_front()
    contended = run_traffic(contended_front, tenants, catalog, closed)

    open_front = fresh_front()
    opened = run_traffic(open_front, tenants, catalog, open_loop)

    shares = [
        contended["per_tenant"][name]["served_bytes"] for name in tenants
    ]
    jain = jain_index(shares)
    solo_p99 = solo["per_tenant"]["t0"]["p99_s"]
    slowdown = (contended["p99_s"] / solo_p99) if solo_p99 else float("inf")
    expected = ntenants * requests_per_tenant
    all_completed = (
        contended["completed"] == expected and contended["failed"] == 0
    )
    passed = (
        all_completed
        and jain >= FLOORS["jain_fairness"]
        and slowdown <= FLOORS["p99_slowdown_vs_solo"]
    )
    return {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "ntenants": ntenants,
            "ndatasets": ndatasets,
            "natoms": natoms,
            "nchunks": nchunks,
            "frames_per_chunk": frames_per_chunk,
            "window_chunks": window_chunks,
            "requests_per_tenant": requests_per_tenant,
            "concurrency": concurrency,
            "max_inflight": max_inflight,
            "l1_capacity_mb": round(l1_capacity / MiB, 3),
            "zipf_s": zipf_s,
            "seed": seed,
        },
        "scenarios": {
            "solo": solo,
            "contended": contended,
            "open_loop": opened,
        },
        "fairness": {
            "jain_contended": round(jain, 4),
            "served_bytes": {
                name: contended["per_tenant"][name]["served_bytes"]
                for name in tenants
            },
        },
        "latency": {
            "solo_p99_s": solo_p99,
            "contended_p99_s": contended["p99_s"],
            "p99_slowdown_vs_solo": round(slowdown, 2),
        },
        "floors": dict(FLOORS),
        "all_completed": all_completed,
        "pass": passed,
        # Full registry snapshot of the contended deployment (the scenario
        # that exercises admission, scheduling, fair share, and prefetch).
        "metrics": contended_front.metrics.to_json(),
    }


def render_serve_bench(result: dict) -> str:
    """Human-readable summary of a :func:`run_serve_bench` record."""
    w = result["workload"]
    s = result["scenarios"]
    lines = [
        "Multi-tenant serving layer (simulated seconds)",
        f"  workload: {w['ntenants']} tenants x {w['requests_per_tenant']} "
        f"requests, {w['ndatasets']} datasets (zipf {w['zipf_s']}), "
        f"concurrency {w['concurrency']}, L1 {w['l1_capacity_mb']} MB",
        f"  solo:      p50 {s['solo']['p50_s']:.6f} s, "
        f"p99 {s['solo']['p99_s']:.6f} s",
        f"  contended: p50 {s['contended']['p50_s']:.6f} s, "
        f"p99 {s['contended']['p99_s']:.6f} s "
        f"({result['latency']['p99_slowdown_vs_solo']}x solo, "
        f"floor <= {result['floors']['p99_slowdown_vs_solo']}x)",
        f"  open loop: p99 {s['open_loop']['p99_s']:.6f} s, "
        f"{s['open_loop']['rejected']} admission rejections",
        f"  fairness: Jain {result['fairness']['jain_contended']} "
        f"(floor >= {result['floors']['jain_fairness']})",
        f"  all contended requests completed: {result['all_completed']}",
        f"  pass: {result['pass']}",
    ]
    return "\n".join(lines)

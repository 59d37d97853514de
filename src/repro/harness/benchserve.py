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
bench-serve --json``); ``FLOORS`` holds the tunable floors and ``GATE``
every row ``pass`` holds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.harness.benchkit import (
    PLAYBACK_TAG,
    Row,
    chunked_catalog,
    hdd_ada,
    ingest_chunks,
    jain_index,
    percentile,
    run_traffic,
    seal,
)
from repro.serve import DatasetRef, ServeFront, TenantBlockCache, TrafficConfig
from repro.sim import Simulator
from repro.units import KiB, MiB

# ``percentile``/``jain_index``/``PLAYBACK_TAG`` are re-exported from the kit:
# ``benchmarks/e2e/run.py`` imports the first two from this module.
__all__ = [
    "FLOORS",
    "GATE",
    "PLAYBACK_TAG",
    "build_front",
    "jain_index",
    "percentile",
    "run_serve_bench",
]

SCHEMA_VERSION = 1

#: Tunable floors; the record carries them as ``floors``.
FLOORS = {
    "jain_fairness": 0.90,  # contended byte shares stay near-equal
    "p99_slowdown_vs_solo": 8.0,  # contended p99 within 8x uncontended
}

#: What ``pass`` requires.  Admission control is load-bearing: the open
#: loop overruns the per-tenant in-flight cap and the gate rejects work.
GATE = [
    Row("all_completed", "==", True),
    Row("fairness.jain_contended", ">=", "floors.jain_fairness"),
    Row("latency.p99_slowdown_vs_solo", "<=", "floors.p99_slowdown_vs_solo"),
    Row("scenarios.open_loop.rejected", ">", 0),
]


def build_front(
    blobs: List[Tuple[str, str, List[bytes]]],
    ntenants: int,
    concurrency: int,
    l1_capacity_bytes: float,
    max_inflight: int,
    byte_budget: Optional[int],
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
    front = ServeFront(ada, concurrency=concurrency)
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
    record = {
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
            "jain_contended": jain,
            "served_bytes": {
                name: contended["per_tenant"][name]["served_bytes"]
                for name in tenants
            },
        },
        "latency": {
            "solo_p99_s": solo_p99,
            "contended_p99_s": contended["p99_s"],
            "p99_slowdown_vs_solo": slowdown,
        },
        "floors": dict(FLOORS),
        "all_completed": (
            contended["completed"] == expected and contended["failed"] == 0
        ),
    }
    seal(GATE, record, {"fairness.jain_contended": 4,
                        "latency.p99_slowdown_vs_solo": 2})
    # Full registry snapshot of the contended deployment (the scenario that
    # exercises admission, scheduling, fair share, and prefetch).
    record["metrics"] = contended_front.metrics.to_json()
    return record


"""The registry catalogue is the contract (exact families, kinds, types).

Every count lives in ``repro.obs.MetricsRegistry`` and nowhere else;
downstream tooling (benchmark JSON, operators' scrapes) reads it by
family name and label, so the set of ``(family, kind, label keys)`` a
deployment exports -- and whether a family is an ``int`` or a ``float``
-- is the public contract and must not drift as instrumentation evolves.
The handful of ``stats()`` snapshots that remain hold only live state the
registry does not.
"""

import pytest

from repro.core import ADA
from repro.faults.plan import FaultPlan
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

_PREFETCH = (
    "issued", "issued_direction", "chunks_requested", "suppressed_pressure",
    "suppressed_degraded", "suppressed_pattern", "suppressed_inflight",
    "suppressed_eof", "suppressed_budget", "suppressed_resident", "failed",
)
_RETRY = (
    "attempts", "retries", "recovered", "transient_faults",
    "corruption_detected", "timeouts", "permanent_failures", "exhausted",
)

#: family -> (kind, label keys, Python type of the value / histogram sum).
CATALOGUE = {
    "block_cache_bytes": ("gauge", ("tier",), float),
    "block_cache_hits_total": ("counter", ("tier",), int),
    "block_cache_pressure": ("gauge", (), float),
    **{
        f"block_cache_{field}_total": ("counter", (), int)
        for field in (
            "demotions", "evictions", "invalidations", "misses",
            "prefetch_hits", "prefetch_wasted",
        )
    },
    "device_bytes_total": ("counter", ("device", "op"), int),
    "device_ops_total": ("counter", ("device", "op"), int),
    "device_service_seconds": ("histogram", ("device", "op"), float),
    "dispatcher_bytes_total": ("counter", ("tag",), int),
    **{
        f"dispatcher_{field}_total": ("counter", (), int)
        for field in (
            "coalesced_chunks", "coalesced_runs", "requests_saved", "spills",
            "writes",
        )
    },
    "indexer_lookups_avoided_total": ("counter", (), int),
    **{f"prefetch_{field}_total": ("counter", (), int) for field in _PREFETCH},
    "retriever_bytes_total": ("counter", (), float),
    "retriever_cache_served_bytes_total": ("counter", (), float),
    **{
        f"retriever_{field}_total": ("counter", (), int)
        for field in (
            "coalesced_chunks", "coalesced_runs", "dedup_waits",
            "prefetched_chunks", "requests_saved",
        )
    },
    "retriever_inflight_reads": ("gauge", (), int),
    "retriever_run_bytes": ("histogram", (), float),
    **{f"retry_{field}_total": ("counter", (), int) for field in _RETRY},
    "retry_backoff_s_total": ("counter", (), float),
}


@pytest.fixture()
def driven_ada():
    """A two-tier cached+prefetching deployment after real traffic."""
    sim = Simulator()
    ada = ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        block_cache=BlockCache(sim),
        prefetch=True,
        fault_plan=FaultPlan.transient_only(seed=5, rate=0.02),
    )
    workload = build_workload(natoms=200, nframes=6, seed=5)
    sim.run_process(ada.ingest("s.xtc", workload.pdb_text, workload.xtc_blob))
    for tag in ada.tags("s.xtc"):
        sim.run_process(ada.fetch("s.xtc", tag))
    sim.run_process(ada.fetch("s.xtc", "p"))  # repeat: exercise cache hits
    return ada


def test_registry_catalogue_is_exact(driven_ada):
    seen = {}
    for name, kind, metrics in driven_ada.metrics.families():
        (label_keys,) = {tuple(k for k, _ in m.labels) for m in metrics}
        (value_type,) = {
            type(m.sum if kind == "histogram" else m.value) for m in metrics
        }
        seen[name] = (kind, label_keys, value_type)
    assert seen == CATALOGUE


def test_ada_stats_schema(driven_ada):
    stats = driven_ada.stats()
    assert set(stats) == {
        "datasets",
        "bytes_written_per_backend",
        "spills",
        "indexer_lookups",
        "degraded",
        "injected",
        "ingest",
    }
    assert stats["datasets"] == ["s.xtc"]
    assert all(
        isinstance(v, float) for v in stats["bytes_written_per_backend"].values()
    )
    assert isinstance(stats["indexer_lookups"], int)
    assert isinstance(stats["spills"], list)
    assert isinstance(stats["degraded"], list)
    # The fixture attaches a fault plan, so its injection ledger appears.
    assert stats["injected"] == driven_ada.fault_plan.snapshot()
    assert all(isinstance(v, int) for v in stats["injected"].values())
    # The fixture ingests through the monolithic path: no streaming
    # pipeline, so the two keys kept for benchmarks/e2e are absent.
    assert stats["ingest"] == {}


def test_block_cache_stats_schema(driven_ada):
    series = driven_ada.metrics.query("block_cache_")
    assert list(series) == [
        'block_cache_bytes{tier="l1"}',
        'block_cache_bytes{tier="l2"}',
        "block_cache_demotions_total",
        "block_cache_evictions_total",
        'block_cache_hits_total{tier="l1"}',
        'block_cache_hits_total{tier="l2"}',
        "block_cache_invalidations_total",
        "block_cache_misses_total",
        "block_cache_prefetch_hits_total",
        "block_cache_prefetch_wasted_total",
        "block_cache_pressure",
    ]
    hits = sum(driven_ada.metrics.query("block_cache_hits_total").values())
    assert hits > 0  # the repeat fetch hit
    assert series["block_cache_pressure"] == driven_ada.block_cache.pressure()


def test_prefetcher_stats_schema(driven_ada):
    series = driven_ada.metrics.query("prefetch_")
    assert set(series) == {f"prefetch_{field}_total" for field in _PREFETCH}
    for key, value in series.items():
        assert isinstance(value, int), key


def test_fault_counters_schema(driven_ada):
    series = driven_ada.metrics.query("retry_")
    assert set(series) == {
        f"retry_{field}_total" for field in _RETRY + ("backoff_s",)
    }
    assert series["retry_attempts_total"] > 0
    # What the registry does not hold stays on plain attributes.
    assert isinstance(driven_ada.degraded, list)
    assert isinstance(driven_ada.fault_plan.total(), int)


def test_fault_counters_schema_without_plan():
    sim = Simulator()
    ada = ADA(
        sim, backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")}
    )
    # Always present (zeros on a healthy run); nothing injected.
    assert set(ada.metrics.query("retry_").values()) == {0}
    assert len(ada.metrics.query("retry_")) == len(_RETRY) + 1
    assert ada.stats()["injected"] == {} and ada.degraded == []

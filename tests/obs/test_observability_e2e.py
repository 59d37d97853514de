"""End-to-end observability acceptance: the instrumented read path.

The headline property (from the issue): tracing a demand read that
overlaps a prefetch of the same chunks shows the deduplication -- one
device read for the window, and a ``retriever.dedup_join`` span under
the demand fetch instead of a second read.
"""

import json

import pytest

from repro.core import ADA
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.harness.tracedemo import TRACE_LOGICAL, TRACE_TAG, run_trace_demo
from repro.obs.export import parse_prometheus
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

pytestmark = pytest.mark.obs


@pytest.fixture(scope="module")
def demo():
    return run_trace_demo()


def test_demand_overlapping_prefetch_dedups_device_read(demo):
    ada, tracer = demo
    joins = tracer.find("retriever.dedup_join")
    assert joins, "no demand window ever joined an in-flight prefetch"
    for join in joins:
        # The joined wait resolved from the freshly admitted blocks:
        # no private re-read was needed.
        assert join.tags["rereads"] == 0
        # The join lives under the demand fetch's timeline.
        root = join
        while root.parent is not None:
            root = root.parent
        assert root.name == "ada.fetch_chunks"
        # The demand retrieval issued no device read of its own -- the
        # one device read for these chunks is the prefetcher's.  (The
        # *root* may still contain a device read: the next window's
        # prefetch, spawned inside this fetch, nests here too.)
        demand_retrieve = join.parent
        assert demand_retrieve.name == "retriever.retrieve_chunks"
        assert not [
            sp for sp in demand_retrieve.walk() if sp.name == "device.read"
        ], "demand read re-issued chunks a prefetch already had in flight"
    # Global accounting: each window of chunks moved off the device at
    # most once.  Every retrieve_chunks (demand or speculative) either
    # issued exactly one coalesced device read or joined/hit instead, so
    # the totals tie out with no duplicate traffic.
    device_reads = tracer.find("device.read")
    windows = tracer.find("retriever.retrieve_chunks")
    assert len(device_reads) == len(windows) - len(joins) - len(
        [w for w in windows if w.tags.get("cache_hits") == w.tags["chunks"]]
    )
    assert ada.metrics.value("retriever_dedup_waits_total") > 0


def test_prefetch_window_nests_under_triggering_fetch(demo):
    _, tracer = demo
    windows = tracer.find("prefetch.window")
    assert windows
    for w in windows:
        root = w
        while root.parent is not None:
            root = root.parent
        assert root.name == "ada.fetch_chunks"
        assert root.tags["logical"] == TRACE_LOGICAL


def test_trace_and_metrics_exports_are_byte_identical_across_runs(demo):
    ada1, tracer1 = demo
    ada2, tracer2 = run_trace_demo()
    assert tracer1.to_json(TRACE_LOGICAL, TRACE_TAG) == tracer2.to_json(
        TRACE_LOGICAL, TRACE_TAG
    )
    assert json.dumps(ada1.metrics.to_json(), sort_keys=True) == json.dumps(
        ada2.metrics.to_json(), sort_keys=True
    )
    assert ada1.metrics.to_prometheus() == ada2.metrics.to_prometheus()


def test_registry_is_unified_across_subsystems(demo):
    ada, _ = demo
    registry = ada.metrics
    names = {name for name, _, _ in registry.families()}
    # One registry sees the retriever, prefetcher, cache, retry layer,
    # and devices.
    assert {
        "retriever_bytes_total",
        "retriever_inflight_reads",
        "prefetch_issued_total",
        "block_cache_hits_total",
        "retry_attempts_total",
        "device_ops_total",
    } <= names
    # value() and query() read the same series.
    series = registry.query()
    retrieved = registry.value("retriever_bytes_total")
    assert series["retriever_bytes_total"] == retrieved
    assert series["prefetch_issued_total"] == registry.value(
        "prefetch_issued_total"
    )
    assert series['block_cache_hits_total{tier="l1"}'] == registry.value(
        "block_cache_hits_total", tier="l1"
    )
    # The inflight gauge reads live (and is zero once the run drained).
    assert registry.value("retriever_inflight_reads") == 0
    # The exported text parses and carries the same numbers.
    parsed = parse_prometheus(registry.to_prometheus())
    assert parsed["retriever_bytes_total"][()] == float(retrieved)


def test_untraced_run_timing_is_unchanged_by_observability():
    """Attaching a tracer must not alter simulated timing."""

    def run(traced: bool) -> float:
        from repro.obs.trace import Tracer

        sim = Simulator()
        if traced:
            Tracer(sim)
        ada = ADA(
            sim,
            backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
            block_cache=BlockCache(sim),
        )
        workload = build_workload(natoms=200, nframes=6, seed=3)
        sim.run_process(
            ada.ingest("t.xtc", workload.pdb_text, workload.xtc_blob)
        )
        for tag in ada.tags("t.xtc"):
            sim.run_process(ada.fetch("t.xtc", tag))
        return sim.now

    assert run(traced=False) == run(traced=True)

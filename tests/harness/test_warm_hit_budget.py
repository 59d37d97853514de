"""The warm-hit request budget, gated by exact counts.

A request whose chunks are all cache hits should cost almost nothing, and
what it costs is bookkeeping: kernel events, trace spans, index copies.
Those are *counts* -- deterministic at a fixed seed -- so this gate (marked
``bench``: CI's ``pytest -m bench`` step runs it) pins them per request on
a small warmed ``ServeFront`` of the end-to-end benchmark's ``serve_warm``
shape.  A regression in any of the three mechanisms that keep the hit path
lean fails here as a number, not as a slower wall clock:

* **kernel events** -- an event that fires with nobody subscribed (an idle
  slot's grant, a completion nobody waits for) is never dispatched, a
  window waits once for all its hits, and an uncontended request runs in
  the process that waits for it;
* **spans** -- the tenant rides the DES process, so serving without a
  tracer attached constructs no ``Span``;
* **record copies** -- a window resolves its own chunks' records; nobody
  snapshots the whole subset.
"""

import pytest

from repro.fs.plfs import PLFS
from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog
from repro.harness.benchserve import build_front
from repro.obs import trace
from repro.serve import DatasetRef, TrafficConfig, TrafficGenerator
from repro.sim import AllOf

pytestmark = pytest.mark.bench

#: ``serve_warm`` in miniature: same window, tenants, slots and Zipf skew.
NDATASETS, NCHUNKS, WINDOW = 3, 16, 4
TENANTS = ("t0", "t1", "t2", "t3")
REQUESTS_PER_TENANT = 60

#: Kernel events dispatched by the measured phase, exactly.  A request
#: the queue would dispatch next with nothing in between runs in the
#: waiting tenant's own process and costs 1: one cache wait for the whole
#: window (the window is probed once; its hits' charges are summed into
#: one timeout).  Every chunk is resident, so the window skips the
#: indexer's 2 ms lookup, which only a read that goes to storage pays.
#: Its completion hops once at zero delay only when another event is due
#: at that instant, so the tenant resumes where the ``done`` wake would
#: have resumed it.  An all-hit window yields no read barrier, and a
#: prefetch whose predicted window is already resident is not launched.
#: A request that meets a same-instant neighbour takes the queue: the
#: drain loop's wake, its wake on the already granted slot, the exec
#: process's boot, the one wait, the client's wake on ``done`` and, when a
#: neighbour is due then too, the loop's wake on the completion (a kick
#: that finds the loop awake merges).  Four tenants with identical service
#: times collide often here, so 129 of the 240 requests queue: 3.24 a
#: request (1.34 at the end-to-end benchmark's own shape).  While every
#: read paid the lookup this phase dispatched 1017 (4.24; 2.33 at the
#: benchmark's shape); before uncontended requests ran in place, 1551
#: (6.46; 7.02 at the benchmark's shape); with one timeout per hit, a wake
#: on the empty barrier and resident prefetches launched, 2570 (10.71);
#: before subscriber-less triggers stopped reaching the heap, 3350
#: (13.96), with 2219 spans and 953 whole-subset record copies.
REQUESTS = len(TENANTS) * REQUESTS_PER_TENANT
EVENTS = 777

#: Simulated second the measured phase starts at.  The count depends on
#: where float rounding of the absolute clock falls (it decides which
#: event times tie, and so which kicks merge), so the phase starts at a
#: fixed clock, not wherever the catalogue ingest and warm-up happened to
#: end: it reads 777 from 2, 4, 8 or 16 s alike.
PHASE_START_S = 2.0


def _warm_front():
    blobs = chunked_catalog(NDATASETS, 200, NCHUNKS, 4, 7)
    working_set = sum(len(b) for _l, _p, chunks in blobs for b in chunks)
    front = build_front(
        blobs, ntenants=len(TENANTS), concurrency=8,
        l1_capacity_bytes=2.0 * working_set, max_inflight=8,
    )
    sim, ada = front.sim, front.ada
    # Warm-up: every window once, so the measured phase is all hits.
    for logical, _pdb, _chunks in blobs:
        for start in range(0, NCHUNKS, WINDOW):
            sim.run_process(
                ada.fetch_chunks(
                    logical, PLAYBACK_TAG, list(range(start, start + WINDOW))
                )
            )
    assert sim.now < PHASE_START_S
    sim.run(until=PHASE_START_S)
    return front


def _closed_loops(front):
    """Each tenant walks its Zipf plan, one request at a time."""
    sim = front.sim
    catalog = [
        DatasetRef(f"traj{i}.xtc", PLAYBACK_TAG, NCHUNKS)
        for i in range(NDATASETS)
    ]
    generator = TrafficGenerator(
        catalog,
        TrafficConfig(
            mode="closed", requests_per_tenant=REQUESTS_PER_TENANT,
            window_chunks=WINDOW, zipf_s=1.1, seed=7,
        ),
    )

    def loop(name):
        session = front.session(name)
        for ref, window in generator.plan(name):
            yield from session.fetch_chunks(ref.logical, ref.tag, window)

    procs = [sim.process(loop(name), name=f"gate:{name}") for name in TENANTS]

    def barrier():
        yield AllOf(sim, procs)

    sim.run_process(barrier())


def test_warm_hit_request_budget(monkeypatch):
    front = _warm_front()
    sim = front.sim

    spans = []
    span_init = trace.Span.__init__

    def counting_init(self, *args, **kwargs):
        spans.append(1)
        span_init(self, *args, **kwargs)

    copies = []
    subset_records = PLFS.subset_records

    def counting_records(self, logical, tag):
        copies.append((logical, tag))
        return subset_records(self, logical, tag)

    monkeypatch.setattr(trace.Span, "__init__", counting_init)
    monkeypatch.setattr(PLFS, "subset_records", counting_records)

    def cache_misses():
        return front.metrics.value("block_cache_misses_total")

    misses, events = cache_misses(), sim.events_processed
    _closed_loops(front)
    done = front.scheduler.completed
    assert sum(len(v) for v in done.values()) == REQUESTS
    assert all(r.ok for v in done.values() for r in v)
    assert cache_misses() == misses  # the phase really was all hits

    assert sim.events_processed - events == EVENTS
    assert sim.tracer is None and not spans
    assert not copies

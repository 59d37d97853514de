"""An uncontended closed-loop request runs in the process that waits for it.

``RequestScheduler.call`` skips the drain loop and the per-request exec
process when the queue would dispatch the request next with nothing in
between.  That is only an optimisation if nothing observable moves, so
each case here runs the same closed-loop traffic twice -- once as is, once
with ``Simulator.due_now`` forced to report "something due", which sends
every request down the queued path -- and compares, request by request,
its WFQ tags and every timestamp, the bytes served and their digest, each
tenant's cache billing, every ``serve_*``/``retry_*`` series, the
scheduler's virtual clock and, with a ``Tracer`` attached, every span.
The name of the process that runs ``_execute`` shows which path each
request took, so the cases also prove both paths actually ran.

A direct request shares its caller's fate: interrupting or closing the
caller mid-request must still leave the slot, the queue and the tenant's
admission ledger empty, with the request recorded as failed.
"""

import hashlib

import pytest

from repro.errors import SimulationError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog, run_traffic
from repro.harness.benchserve import build_front
from repro.obs.trace import Tracer
from repro.serve import DatasetRef, RequestScheduler, TrafficConfig
from repro.sim import Interrupt, Simulator
from tests.harness.test_warm_hit_budget import _closed_loops, _warm_front

pytestmark = pytest.mark.serve

_NCHUNKS = 8


@pytest.fixture(scope="module")
def blobs():
    return chunked_catalog(2, 200, _NCHUNKS, 4, 9)


def _traffic(front, ntenants, requests=10):
    catalog = [
        DatasetRef(f"traj{i}.xtc", PLAYBACK_TAG, _NCHUNKS) for i in range(2)
    ]
    config = TrafficConfig(
        mode="closed", requests_per_tenant=requests, window_chunks=3,
        zipf_s=1.1, seed=9,
    )
    run_traffic(front, [f"t{i}" for i in range(ntenants)], catalog, config)


def _warm(_blobs):
    front = _warm_front()
    return front, lambda: _closed_loops(front)


def _contended(blobs):
    front = build_front(
        blobs, ntenants=4, concurrency=2, l1_capacity_bytes=96 * 1024.0,
        max_inflight=4, byte_budget=None,
    )
    return front, lambda: _traffic(front, 4)


def _traced(blobs):
    front, drive = _contended(blobs)
    Tracer(front.sim)
    return front, drive


def _faulty(blobs):
    plan = FaultPlan(seed=11, sites={
        "serve:t0": FaultSpec(transient_rate=0.3, latency_rate=0.3,
                              latency_spike_s=2e-3),
        "serve:t2": FaultSpec(transient_rate=0.2),
    })
    front = build_front(
        blobs, ntenants=3, concurrency=3, l1_capacity_bytes=96 * 1024.0,
        max_inflight=4, byte_budget=None, fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=6),
    )
    return front, lambda: _traffic(front, 3)


def _digest(request):
    if not request.ok:
        return type(request.error).__name__
    sha = hashlib.sha256()
    for obj in request.done.value:
        sha.update(obj.data)
    return sha.hexdigest()


def _observe(monkeypatch, case, blobs, queued):
    """Run ``case``; returns what must not move, and who ran ``_execute``."""
    runners = {}
    execute = RequestScheduler._execute

    def recording(self, request, grant):
        runners[(request.tenant, request.seq)] = (
            self.sim.active_process.name.split(":")[0]
        )
        return (yield from execute(self, request, grant))

    with monkeypatch.context() as patch:
        patch.setattr(RequestScheduler, "_execute", recording)
        if queued:
            patch.setattr(Simulator, "due_now", lambda self: True)
        front, drive = case(blobs)
        drive()
    requests = [
        (
            r.tenant, r.seq, r.kind, r.start_tag, r.finish_tag,
            r.submitted_s, r.started_s, r.finished_s, r.served_bytes,
            _digest(r),
        )
        for tenant in sorted(front.scheduler.completed)
        for r in front.scheduler.completed[tenant]
    ]
    cache = front.ada.block_cache
    tenants = sorted(front.sessions.stats())
    billing = [
        (t, cache.charged_bytes(t), cache.prefetched_bytes(t))
        for t in tenants
    ]
    series = {
        **front.metrics.query("serve_"), **front.metrics.query("retry_"),
    }
    clocks = (front.scheduler.vtime, front.sim.now)
    tracer = front.sim.tracer
    spans = tracer and [
        (
            sp.span_id, sp.name, sp.tags, sp.start_s, sp.end_s,
            sp.parent and sp.parent.span_id,
        )
        for root in tracer.roots for sp in root.walk()
    ]
    return (requests, billing, series, clocks, spans), runners


@pytest.mark.parametrize(
    "case, paths",
    [
        (_warm, {"gate", "serve.exec"}),
        (_contended, {"traffic", "serve.exec"}),
        (_traced, {"traffic", "serve.exec"}),
        (_faulty, {"traffic", "serve.exec"}),
    ],
    ids=["serve_warm", "contended", "traced", "faults"],
)
def test_direct_path_moves_nothing(monkeypatch, blobs, case, paths):
    direct, direct_runners = _observe(monkeypatch, case, blobs, False)
    queued, queued_runners = _observe(monkeypatch, case, blobs, True)
    assert direct == queued
    # Coverage: forced, every request took the queue; as is, both paths
    # ran (tenant loops are "gate:*"/"traffic:*" processes).
    assert set(queued_runners.values()) == {"serve.exec"}
    assert set(direct_runners.values()) == paths
    if case is _faulty:  # the faults fired and the retries absorbed them
        series = direct[2]
        assert any(
            v for k, v in series.items() if k.startswith("retry_retries")
        )
    if case is _traced:  # both paths open the serve spans
        names = [name for _id, name, *_rest in direct[4]]
        assert names.count("serve.request") == len(direct[0])
        assert names.count("serve.schedule") == len(direct[0])


def _direct_front(blobs):
    front = build_front(
        blobs, ntenants=1, concurrency=2, l1_capacity_bytes=96 * 1024.0,
        max_inflight=4, byte_budget=None,
    )
    return front, front.session("t0")


def _assert_quiescent(front):
    state = front.sessions.get("t0")
    assert front.scheduler.slots.in_use == 0
    assert front.scheduler.backlog == 0
    assert state.inflight == 0 and state.outstanding_bytes == 0
    (request,) = front.scheduler.completed["t0"]
    assert not request.ok and request.finished_s is not None
    assert front.metrics.value("serve_failed_total", tenant="t0") == 1
    return request


def test_interrupted_caller_leaves_an_empty_ledger(blobs):
    front, session = _direct_front(blobs)
    sim = front.sim
    seen = []

    def reader():
        try:
            yield from session.fetch_chunks("traj0.xtc", PLAYBACK_TAG, [0, 1])
        except Interrupt as exc:
            seen.append(exc)

    def interrupter():
        yield sim.timeout(1e-4)  # mid-way through the indexer latency
        assert proc.context == "t0"  # the reader runs its request itself
        assert front.scheduler.slots.in_use == 1
        assert front.sessions.get("t0").inflight == 1
        proc.interrupt("viewer closed")

    # Booted first, so nothing else is due when the reader submits.
    sim.process(interrupter())
    proc = sim.process(reader(), name="reader")
    sim.run()
    request = _assert_quiescent(front)
    assert isinstance(request.error, Interrupt) and seen
    assert proc.ok and proc.context is None


def test_closed_caller_leaves_an_empty_ledger(blobs):
    front, session = _direct_front(blobs)
    sim = front.sim
    reads = session.fetch_chunks("traj0.xtc", PLAYBACK_TAG, [0, 1])
    proc = sim.process(reads, name="reader")
    sim.run(until=sim.now + 1e-4)  # mid-way through the indexer latency
    assert proc.context == "t0" and front.scheduler.slots.in_use == 1
    reads.close()
    sim.run()
    request = _assert_quiescent(front)
    assert isinstance(request.error, GeneratorExit)
    assert proc.context is None


def test_double_release_raises(blobs):
    front, _session = _direct_front(blobs)
    front.sessions.admit("t0", 10)
    front.sessions.release("t0", 10)
    with pytest.raises(SimulationError, match="released more"):
        front.sessions.release("t0", 10)

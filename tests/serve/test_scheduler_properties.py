"""Property tests for the start-time fair queuing request scheduler.

Everything here drives :class:`~repro.serve.RequestScheduler` with a
stub dispatcher (``cost_bytes / bandwidth`` simulated seconds per
request), so the properties are about *scheduling*, not the middleware:

* starvation-freedom -- a new flow's request is not queued behind
  another flow's backlog;
* deterministic tie-breaking -- equal finish tags break by
  ``(tenant, seq)``, and two identical runs produce identical
  completion timelines under the sim clock;
* equal shares -- long-run *byte* shares are equal across tenants, not
  request counts.
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.serve import RequestScheduler, ServeRequest
from repro.sim import Simulator

pytestmark = pytest.mark.serve

#: Stub service rate: one kilobyte per simulated millisecond.
BANDWIDTH = 1e6


def make_scheduler(sim, concurrency=1, order=None):
    """Scheduler whose dispatch just charges ``cost / BANDWIDTH`` seconds."""

    def dispatch(request):
        if request.payload.get("boom"):
            raise ValueError(f"boom:{request.tenant}:{request.seq}")
        yield sim.timeout(request.cost_bytes / BANDWIDTH)
        request.served_bytes = request.cost_bytes
        return request.cost_bytes

    scheduler = RequestScheduler(sim, dispatch=dispatch, concurrency=concurrency)
    if order is not None:
        original = scheduler.dispatch

        def recording(request):
            order.append((request.tenant, request.seq))
            result = yield from original(request)
            return result

        scheduler.dispatch = recording
    return scheduler


def submit(scheduler, tenant, cost=1000, **payload):
    return scheduler.submit(
        ServeRequest(tenant=tenant, kind="work", cost_bytes=cost,
                     payload=payload)
    )


def completion_order(scheduler):
    done = [r for rs in scheduler.completed.values() for r in rs]
    return [
        (r.tenant, r.seq)
        for r in sorted(done, key=lambda r: (r.finished_s, r.seq))
    ]


def test_scheduler_rejects_bad_concurrency():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        RequestScheduler(sim, dispatch=lambda r: iter(()), concurrency=0)


def test_deterministic_tie_breaking_by_tenant_then_seq():
    """Equal finish tags break lexicographically, then by submit order."""
    sim = Simulator()
    order = []
    scheduler = make_scheduler(sim, concurrency=1, order=order)
    submit(scheduler, "b")
    submit(scheduler, "a")
    a2 = submit(scheduler, "a")
    sim.run()
    # Both flows start at V=0 with equal cost: first requests tie at the
    # same finish tag and "a" wins; a's second request has a later tag.
    assert order == [("a", 1), ("b", 0), ("a", a2.seq)]


def test_identical_runs_schedule_identically():
    """Two runs of the same mixed scenario match to the timestamp."""

    def run_once():
        sim = Simulator()
        scheduler = make_scheduler(sim, concurrency=3)
        rng = random.Random(42)
        tenants = ["t0", "t1", "t2", "t3"]

        def driver():
            for _ in range(60):
                submit(scheduler, rng.choice(tenants),
                       cost=rng.randrange(500, 5000))
                yield sim.timeout(rng.expovariate(2000.0))

        sim.run_process(driver())
        done = [r for rs in scheduler.completed.values() for r in rs]
        return sorted(
            (r.tenant, r.seq, r.started_s, r.finished_s) for r in done
        )

    first, second = run_once(), run_once()
    assert len(first) == 60
    assert first == second


def test_a_new_flow_is_not_queued_behind_a_backlog():
    """A tenant's one request overtakes another tenant's 100-deep backlog.

    Its start tag is the virtual clock, not the backlog's finish tag, so
    it dispatches within the first two -- a FIFO queue would run it last.
    """
    sim = Simulator()
    order = []
    scheduler = make_scheduler(sim, concurrency=1, order=order)
    for _ in range(100):
        submit(scheduler, "flood")
    late = submit(scheduler, "late")
    sim.run()
    assert late.ok
    assert order.index(("late", late.seq)) < 2
    # ... and nothing else starved either: every admitted request ran.
    assert len(completion_order(scheduler)) == 101


def test_fairness_is_byte_weighted_not_request_counted():
    """A tenant sending 4x-larger requests gets the same *bytes*."""
    sim = Simulator()
    scheduler = make_scheduler(sim, concurrency=1)
    for _ in range(100):
        submit(scheduler, "big", cost=4000)
    for _ in range(400):
        submit(scheduler, "small", cost=1000)
    sim.run(until=0.200)
    value = scheduler.metrics.value
    assert value("serve_queue_depth", tenant="big") > 0
    assert value("serve_queue_depth", tenant="small") > 0
    big = value("serve_served_bytes_total", tenant="big")
    small = value("serve_served_bytes_total", tenant="small")
    assert abs(big - small) / max(big, small) <= 0.10
    # Request *counts* are therefore far apart -- the point of the test.
    assert value("serve_completed_total", tenant="small") >= 3 * value(
        "serve_completed_total", tenant="big"
    )


def test_concurrency_bounds_parallelism():
    """No more than ``concurrency`` requests are ever in service."""
    sim = Simulator()
    inservice = {"now": 0, "peak": 0}

    def dispatch(request):
        inservice["now"] += 1
        inservice["peak"] = max(inservice["peak"], inservice["now"])
        yield sim.timeout(request.cost_bytes / BANDWIDTH)
        inservice["now"] -= 1
        return None

    scheduler = RequestScheduler(sim, dispatch=dispatch, concurrency=3)
    for index in range(12):
        submit(scheduler, f"t{index % 4}")
    sim.run()
    assert inservice["peak"] == 3
    assert scheduler.backlog == 0


def test_dispatch_failure_is_delivered_to_the_waiter():
    sim = Simulator()
    scheduler = make_scheduler(sim)
    caught = []

    def waiter():
        request = submit(scheduler, "t", boom=True)
        try:
            yield request.done
        except ValueError as exc:
            caught.append(exc)
        return None

    sim.run_process(waiter())
    assert len(caught) == 1
    (request,) = scheduler.completed["t"]
    assert not request.ok and isinstance(request.error, ValueError)
    assert scheduler.metrics.value("serve_failed_total", tenant="t") == 1


def test_failure_without_waiter_is_counted_not_raised():
    """Open-loop tenants learn about failures from counters, not crashes."""
    sim = Simulator()
    scheduler = make_scheduler(sim)
    submit(scheduler, "t", boom=True)
    submit(scheduler, "t")
    sim.run()
    series = scheduler.metrics.query("serve_", tenant="t")
    for family, want in (
        ("serve_queue_depth", 0),
        ("serve_completed_total", 1),
        ("serve_failed_total", 1),
        ("serve_served_bytes_total", 1000),
        ("serve_wait_seconds_count", 2),
    ):
        assert series[f'{family}{{tenant="t"}}'] == want, family
    assert scheduler.backlog == 0

"""Property tests for the WFQ request scheduler.

Everything here drives :class:`~repro.serve.RequestScheduler` with a
stub dispatcher (``cost_bytes / bandwidth`` simulated seconds per
request), so the properties are about *scheduling*, not the middleware:

* priority ordering -- lower nice dispatches sooner among backlogged
  equal-cost requests;
* starvation-freedom -- a nice +8 request completes within a bounded
  number of dispatches even under a continuous nice -8 flood;
* deterministic tie-breaking -- equal finish tags break by
  ``(tenant, seq)``, and two identical runs produce identical
  completion timelines under the sim clock;
* fair-share convergence -- long-run byte shares track the configured
  nice weights (and byte-weighted, not request-counted, fairness).
"""

import random

import pytest

from repro.errors import ConfigurationError
from repro.serve import RequestScheduler, ServeRequest, nice_weight
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


def submit(scheduler, tenant, nice=0, cost=1000, **payload):
    return scheduler.submit(
        ServeRequest(tenant=tenant, kind="work", nice=nice,
                     cost_bytes=cost, payload=payload)
    )


def completion_order(scheduler):
    done = [r for rs in scheduler.completed.values() for r in rs]
    return [
        (r.tenant, r.seq)
        for r in sorted(done, key=lambda r: (r.finished_s, r.seq))
    ]


def test_nice_weight_levels():
    assert nice_weight(0) == 1.0
    assert nice_weight(2) == 0.5
    assert nice_weight(-2) == 2.0
    # Monotone: more nice, less share.
    weights = [nice_weight(n) for n in range(-8, 9)]
    assert weights == sorted(weights, reverse=True)
    with pytest.raises(ConfigurationError):
        nice_weight(9)
    with pytest.raises(ConfigurationError):
        nice_weight(-9)


def test_scheduler_rejects_bad_concurrency():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        RequestScheduler(sim, dispatch=lambda r: iter(()), concurrency=0)


def test_priority_ordering_lower_nice_first():
    """Backlogged equal-cost requests dispatch in nice order, not FIFO."""
    sim = Simulator()
    order = []
    scheduler = make_scheduler(sim, concurrency=1, order=order)
    # Submitted worst-priority first, so FIFO would invert this.
    lo = submit(scheduler, "lo", nice=4)
    mid = submit(scheduler, "mid", nice=0)
    hi = submit(scheduler, "hi", nice=-4)
    sim.run()
    assert [tenant for tenant, _ in order] == ["hi", "mid", "lo"]
    assert hi.ok and mid.ok and lo.ok
    assert hi.finished_s < mid.finished_s < lo.finished_s


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
        tenants = [("t0", -4), ("t1", 0), ("t2", 2), ("t3", 6)]

        def driver():
            for _ in range(60):
                name, nice = rng.choice(tenants)
                submit(scheduler, name, nice=nice,
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


def test_starvation_freedom_under_high_priority_flood():
    """A nice +4 request survives a continuous nice -4 flood.

    SFQ bounds the damage: with weight ratio 16 and equal costs, the
    background request's finish tag is passed after ~16 foreground
    dispatches, *not* after the flood drains.  A strict-priority queue
    (the naive ActionManager reading) would fail this test.
    """
    sim = Simulator()
    order = []
    scheduler = make_scheduler(sim, concurrency=1, order=order)
    bg = submit(scheduler, "bg", nice=4)
    for _ in range(100):
        submit(scheduler, "fg", nice=-4)
    sim.run()
    assert bg.ok
    position = order.index(("bg", bg.seq))
    assert position <= 20, f"background request starved to position {position}"
    # ... and nothing else starved either: every admitted request ran.
    assert len(completion_order(scheduler)) == 101


def test_fair_share_converges_to_nice_weights():
    """Long-run byte shares track 2**(-nice/2) within 10% relative."""
    sim = Simulator()
    scheduler = make_scheduler(sim, concurrency=1)
    nices = {"a": 0, "b": 2, "c": 4}  # weights 1.0 : 0.5 : 0.25
    for tenant, nice in nices.items():
        for _ in range(400):
            submit(scheduler, tenant, nice=nice)
    sim.run(until=0.200)  # ~200 of 1200 one-millisecond requests served
    value = scheduler.metrics.value
    # Honest measurement: every flow must still be backlogged at the cut.
    assert all(value("serve_queue_depth", tenant=t) > 0 for t in nices)
    served = {t: value("serve_served_bytes_total", tenant=t) for t in nices}
    total = sum(served.values())
    total_weight = sum(nice_weight(n) for n in nices.values())
    for tenant, nice in nices.items():
        expected = nice_weight(nice) / total_weight
        actual = served[tenant] / total
        assert abs(actual - expected) / expected <= 0.10, (
            f"{tenant}: share {actual:.3f} vs expected {expected:.3f}"
        )


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
    assert scheduler.stats() == {
        "concurrency": scheduler.concurrency,
        "backlog": 0,
        "vtime": scheduler.vtime,
    }

"""Microbenchmarks of the DES kernel itself.

Every experiment point rebuilds a world and runs thousands of events;
these kernels keep an eye on the simulator's raw throughput so the sweeps
stay interactive.  Each one also pins its *dispatched-event count*, which
is exact: a kernel change that starts dispatching events nobody hears
(or stops dispatching ones somebody does) fails here as a number.  The
request-level gate that CI runs is ``tests/harness/test_warm_hit_budget.py``.
"""

import pytest

from repro.sim import AllOf, Resource, Simulator


def _timeout_chain(n):
    sim = Simulator()

    def proc(sim):
        for _ in range(n):
            yield sim.timeout(1.0)

    sim.run_process(proc(sim))
    return sim.events_processed


def _contended_resource(n_procs, capacity):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)

    def worker(sim, res):
        with res.request() as req:
            yield req
            yield sim.timeout(1.0)

    for _ in range(n_procs):
        sim.process(worker(sim, res))
    sim.run()
    return sim.now


def _fan_out_fan_in(width, depth):
    sim = Simulator()

    def leaf(sim):
        yield sim.timeout(1.0)

    def parent(sim):
        for _ in range(depth):
            procs = [sim.process(leaf(sim)) for _ in range(width)]
            yield AllOf(sim, procs)

    sim.run_process(parent(sim))
    return sim.now


def _spawn_heavy(n):
    """A parent launching ``n`` fire-and-forget children: process set-up,
    one boot event each, and completions nobody observes."""
    sim = Simulator()

    def child(sim):
        yield sim.timeout(1.0)

    def parent(sim):
        for _ in range(n):
            sim.process(child(sim))
            yield sim.timeout(0.0)

    sim.run_process(parent(sim))
    return sim.events_processed


def _fired_yields(n):
    """Yields on events that have already fired: an idle resource's grant
    and the barrier of an empty fan-out, ``n`` times each."""
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def proc(sim):
        for _ in range(n):
            with res.request() as grant:
                yield grant
            yield AllOf(sim, [])

    sim.run_process(proc(sim))
    return sim.events_processed


def test_bench_timeout_chain(benchmark):
    events = benchmark(_timeout_chain, 2000)
    assert events >= 2000


def test_bench_contended_resource(benchmark):
    makespan = benchmark(_contended_resource, 500, 4)
    assert makespan == pytest.approx(125.0)


def test_bench_fan_out_fan_in(benchmark):
    now = benchmark(_fan_out_fan_in, 50, 10)
    assert now == pytest.approx(10.0)


def test_bench_spawn_heavy(benchmark):
    # Per child: its boot, its timeout, the parent's timeout.  The
    # children's completions have no subscriber and are never dispatched.
    assert benchmark(_spawn_heavy, 500) == 1 + 3 * 500


def test_bench_fired_yields(benchmark):
    # One private wake per yield; the grant and the barrier themselves
    # fired unobserved and never reached the heap.
    assert benchmark(_fired_yields, 500) == 1 + 2 * 500


def test_event_throughput_floor():
    """The kernel dispatches at least ~100k events/second."""
    import time

    start = time.perf_counter()
    events = _timeout_chain(20_000)
    rate = events / (time.perf_counter() - start)
    assert rate > 100_000, f"only {rate:,.0f} events/s"

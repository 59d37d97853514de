"""Tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Event, Interrupt, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(2.5)
        return sim.now

    assert sim.run_process(proc(sim)) == 2.5
    assert sim.now == 2.5


def test_sequential_timeouts_accumulate():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        yield sim.timeout(0.5)

    sim.run_process(proc(sim))
    assert sim.now == pytest.approx(3.5)


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_timeout_delivers_value():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(1.0, value="payload")
        return got

    assert sim.run_process(proc(sim)) == "payload"


def test_parallel_processes_interleave():
    sim = Simulator()
    log = []

    def worker(sim, name, delay):
        yield sim.timeout(delay)
        log.append((sim.now, name))

    sim.process(worker(sim, "slow", 3.0))
    sim.process(worker(sim, "fast", 1.0))
    sim.run()
    assert log == [(1.0, "fast"), (3.0, "slow")]


def test_simultaneous_events_fire_in_schedule_order():
    sim = Simulator()
    log = []

    def worker(sim, name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abc":
        sim.process(worker(sim, name))
    sim.run()
    assert log == ["a", "b", "c"]


def test_process_waits_on_process():
    sim = Simulator()

    def child(sim):
        yield sim.timeout(4.0)
        return "child-result"

    def parent(sim):
        result = yield sim.process(child(sim))
        return (sim.now, result)

    assert sim.run_process(parent(sim)) == (4.0, "child-result")


def test_process_return_value_none_by_default():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(0.0)

    assert sim.run_process(proc(sim)) is None


def test_manual_event_succeed():
    sim = Simulator()
    gate = sim.event()
    results = []

    def waiter(sim, gate):
        value = yield gate
        results.append((sim.now, value))

    def opener(sim, gate):
        yield sim.timeout(5.0)
        gate.succeed(42)

    sim.process(waiter(sim, gate))
    sim.process(opener(sim, gate))
    sim.run()
    assert results == [(5.0, 42)]


def test_event_double_trigger_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_fail_raises_in_waiter():
    sim = Simulator()
    gate = sim.event()

    def waiter(sim, gate):
        yield gate

    proc = sim.process(waiter(sim, gate))
    gate.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert not proc.ok or proc.triggered


def test_waiting_on_already_triggered_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def proc(sim, ev):
        value = yield ev
        return value

    assert sim.run_process(proc(sim, ev)) == "early"


def test_all_of_barrier():
    sim = Simulator()

    def worker(sim, delay):
        yield sim.timeout(delay)
        return delay

    def parent(sim):
        procs = [sim.process(worker(sim, d)) for d in (3.0, 1.0, 2.0)]
        values = yield AllOf(sim, procs)
        return (sim.now, values)

    now, values = sim.run_process(parent(sim))
    assert now == 3.0  # barrier waits for slowest
    assert values == [3.0, 1.0, 2.0]  # in constructor order


def test_all_of_empty_fires_immediately():
    sim = Simulator()

    def parent(sim):
        values = yield AllOf(sim, [])
        return (sim.now, values)

    assert sim.run_process(parent(sim)) == (0.0, [])


def test_any_of_returns_first():
    sim = Simulator()

    def worker(sim, delay):
        yield sim.timeout(delay)
        return delay

    def parent(sim):
        procs = [sim.process(worker(sim, d)) for d in (3.0, 1.0)]
        first = yield AnyOf(sim, procs)
        return (sim.now, first)

    assert sim.run_process(parent(sim)) == (1.0, 1.0)


def test_exception_in_process_propagates_to_waiter():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("inner failure")

    def parent(sim):
        try:
            yield sim.process(bad(sim))
        except ValueError as exc:
            return f"caught {exc}"

    assert sim.run_process(parent(sim)) == "caught inner failure"


def test_unwatched_process_exception_surfaces():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise ValueError("unwatched")

    sim.process(bad(sim))
    with pytest.raises(ValueError, match="unwatched"):
        sim.run()


def test_interrupt_wakes_sleeping_process():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt as intr:
            log.append((sim.now, intr.cause))

    def interrupter(sim, victim):
        yield sim.timeout(2.0)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [(2.0, "wake up")]


def test_run_until_pauses_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    sim.run(until=4.0)
    assert sim.now == 4.0
    sim.run()
    assert sim.now == 10.0


def test_run_process_detects_deadlock():
    sim = Simulator()
    gate = sim.event()  # never triggered

    def stuck(sim, gate):
        yield gate

    with pytest.raises(SimulationError, match="never completed"):
        sim.run_process(stuck(sim, gate))


def test_events_processed_counter():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(1.0)

    sim.run_process(proc(sim))
    assert sim.events_processed >= 3


def test_nested_fan_out_fan_in():
    """A striped-read-shaped pattern: parent spawns N children, waits for all."""
    sim = Simulator()

    def stripe(sim, idx):
        yield sim.timeout(1.0 + idx * 0.5)
        return idx

    def read(sim, n):
        procs = [sim.process(stripe(sim, i)) for i in range(n)]
        values = yield AllOf(sim, procs)
        return values

    assert sim.run_process(read(sim, 4)) == [0, 1, 2, 3]
    assert sim.now == pytest.approx(1.0 + 3 * 0.5)


def test_interrupt_while_parked_on_fired_event():
    """A process parked on an already-fired event wakes through a private
    event; interrupting it there must cancel that wake-up, or the process
    runs on and the Interrupt lands one yield late with a stale callback
    left behind."""
    sim = Simulator()
    log = []

    def victim(sim):
        ev = sim.event()
        ev.succeed("early")
        yield sim.timeout(1.0)
        try:
            log.append((yield ev))
            log.append((yield sim.timeout(5.0, "slow")))
        except Interrupt:
            log.append((sim.now, (yield sim.timeout(10.0, "after")), sim.now))

    def interrupter(sim, proc):
        yield sim.timeout(1.0)
        proc.interrupt()

    proc = sim.process(victim(sim))
    sim.process(interrupter(sim, proc))
    sim.run()
    assert log == [(1.0, "after", 11.0)]


def test_second_interrupt_unhooks_the_handlers_wait():
    """Two interrupts at one instant: the second lands on whatever the
    first one's handler parked on, and that wait must not resume it again."""
    sim = Simulator()
    log = []

    def victim(sim):
        try:
            yield sim.timeout(100.0)
        except Interrupt:
            try:
                yield sim.timeout(5.0, "first handler")
            except Interrupt:
                log.append((yield sim.timeout(10.0, "second handler")))

    def interrupter(sim, proc):
        yield sim.timeout(1.0)
        proc.interrupt()
        proc.interrupt()

    proc = sim.process(victim(sim))
    sim.process(interrupter(sim, proc))
    sim.run()
    assert log == ["second handler"]
    assert sim.now == 100.0  # the abandoned timeouts still drain, unheard


def test_subscriberless_trigger_is_not_dispatched():
    """An event that triggers with nobody subscribed never reaches the
    heap; one that has a waiter is dispatched exactly as before."""
    sim = Simulator()
    sim.event().succeed("nobody listens")
    sim.event().fail(RuntimeError("nobody listens"))
    assert AllOf(sim, []).triggered
    sim.run()
    assert sim.events_processed == 0

    gate = sim.event()

    def waiter(sim):
        return (yield gate)

    proc = sim.process(waiter(sim))
    sim.run()  # boot
    gate.succeed("heard")
    sim.run()  # the gate; the unobserved completion is elided
    assert (proc.value, sim.events_processed) == ("heard", 2)


def test_elision_keeps_same_time_order():
    """Waking on an event that fired unobserved takes the already-fired
    path: the wake-up is queued when the process yields, so it runs ahead
    of anything scheduled after that and behind anything before."""
    sim = Simulator()
    order = []
    fired = sim.event()
    fired.succeed("x")

    def a(sim):
        yield fired
        order.append("a")
        yield fired
        order.append("a again")

    def b(sim):
        yield sim.timeout(0.0)
        order.append("b")

    sim.process(a(sim))
    sim.process(b(sim))
    sim.run()
    assert order == ["a", "b", "a again"]


def test_process_context_is_inherited_at_spawn():
    sim = Simulator()
    seen = {}

    def child(sim, key):
        seen[key] = sim.active_process.context
        yield sim.timeout(1.0)
        seen[key + ":late"] = sim.active_process.context

    def parent(sim):
        sim.process(child(sim, "before"))
        sim.active_process.context = "tenant-a"
        sim.process(child(sim, "after"))
        yield sim.timeout(0.5)
        sim.active_process.context = "tenant-b"  # children keep theirs

    sim.process(parent(sim))
    top = sim.process(child(sim, "top"))
    sim.run()
    assert seen == {
        "before": None, "before:late": None,
        "after": "tenant-a", "after:late": "tenant-a",
        "top": None, "top:late": None,
    }
    assert top.context is None and sim.active_process is None

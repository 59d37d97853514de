"""Core discrete-event simulation engine.

The engine is a classic event-heap design.  :class:`Simulator` owns a heap of
``(time, seq, event)`` entries; :class:`Process` wraps a Python generator and
advances it each time the event it is waiting on fires.  The public surface
mirrors SimPy closely enough that the modeling code reads like standard DES
code, but the implementation is intentionally small and fully deterministic
(ties broken by insertion order).

Typical usage::

    sim = Simulator()

    def transfer(sim, link, nbytes):
        with link.request() as req:
            yield req
            yield sim.timeout(nbytes / link.bandwidth)

    sim.process(transfer(sim, link, 1 << 20))
    sim.run()
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, List, Optional

from repro.errors import SimulationError

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Simulator",
]


class Interrupt(Exception):
    """Thrown into a process that another process interrupted."""

    def __init__(self, cause: Any = None):
        self.cause = cause
        super().__init__(cause)


class Event:
    """A one-shot occurrence in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` triggers them,
    after which every subscribed callback runs at the current simulation
    time.  Processes wait on events by ``yield``-ing them.

    Kernel invariant: nothing ever subscribes to an event that has already
    triggered -- :class:`Process` and :class:`_Condition` both take the
    already-fired path instead -- so an event that triggers with no
    subscriber has no one to tell and is never put on the heap (an
    uncontended resource grant, the barrier of an empty fan-out, the
    completion of a process nobody waits for).  Order is unchanged: a
    dispatch that ran no callback had no effect.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        return self._ok

    @property
    def value(self) -> Any:
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self._ok = True
        self._triggered = True
        if self.callbacks:
            self.sim._schedule(self, 0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as a failure; waiters see ``exception`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._value = exception
        self._ok = False
        self._triggered = True
        if self.callbacks:
            self.sim._schedule(self, 0.0)
        return self


class Timeout(Event):
    """An event that fires ``delay`` simulated seconds after creation."""

    __slots__ = ("delay",)

    def __init__(
        self, sim: "Simulator", delay: float, value: Any = None,
        at: Optional[float] = None,
    ):
        if at is not None:
            delay = at - sim._now
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        # Slots set here rather than through ``Event.__init__`` and
        # ``_schedule``: a timeout is the kernel's most common event.
        self.sim = sim
        self.callbacks = []
        self.delay = delay = float(delay)
        self._value = value
        self._ok = True
        self._triggered = True  # scheduled immediately, fires at now+delay
        when = sim._now + delay if at is None else float(at)
        heapq.heappush(sim._heap, (when, next(sim._seq), self))


class Process(Event):
    """A running generator; also an event that fires when it returns.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event triggers, its value is sent back into the generator (or its
    exception thrown in, if it failed).  The process-as-event triggers with
    the generator's return value, so processes can wait on each other.

    ``context`` is one opaque slot for whoever runs the process to say on
    whose behalf it works; a process inherits the context of the process
    that spawned it (the serving layer keeps the tenant there, so a
    background prefetch is billed to the tenant whose read launched it).
    """

    __slots__ = (
        "generator", "_waiting_on", "name", "context",
        "_trace_ctx", "_span_stack",
    )

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ):
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(f"process target is not a generator: {generator!r}")
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event whose firing resumes this process next: the yielded
        #: event, or the private wake standing in for one that had already
        #: fired.  ``interrupt`` unhooks from it, whichever it is.
        self._waiting_on: Optional[Event] = None
        parent = sim.active_process
        self.context: Any = parent.context if parent is not None else None
        # Observability context: a process spawned while a trace span is
        # open inherits that span as its parent (see repro.obs.trace); the
        # per-process span stack (made by the tracer on first use) keeps
        # nesting correct across interleaved processes.
        tracer = sim.tracer
        self._trace_ctx = tracer.current() if tracer is not None else None
        self._span_stack: Optional[List[Any]] = None
        # Bootstrap: resume once at the current time.
        self._wake(True, None)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            return
        self._unpark()
        self._wake(False, Interrupt(cause))

    # -- internal machinery -------------------------------------------------

    def _wake(self, ok: bool, value: Any) -> Event:
        """Schedule a resume at the current time with the given outcome."""
        wake = Event(self.sim)
        wake._ok = ok
        wake._value = value
        wake._triggered = True
        wake.callbacks.append(self._resume)
        self.sim._schedule(wake, 0.0)
        return wake

    def _unpark(self) -> None:
        """Stop waiting on whatever this process parked on."""
        target, self._waiting_on = self._waiting_on, None
        if target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass

    def _resume(self, event: Event) -> None:
        sim = self.sim
        waiting = self._waiting_on
        if waiting is not event and waiting is not None:
            # An interrupt's wake, overtaking whatever the process parked
            # on since ``interrupt()`` ran: that wake-up must not also fire.
            self._unpark()
        self._waiting_on = None
        # Mark this process active while its generator chain runs, so the
        # tracer (and any other ambient-context consumer) can attribute
        # work -- including spans opened deep inside ``yield from`` chains
        # -- to the right process.
        previous_active = sim.active_process
        sim.active_process = self
        try:
            try:
                if event._ok:
                    target = self.generator.send(event._value)
                else:
                    target = self.generator.throw(event._value)
            except StopIteration as stop:
                if not self._triggered:
                    self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into waiters
                if not self._triggered:
                    self.fail(exc)
                    if not self.callbacks:
                        # Nobody is watching this process: surface the error.
                        raise
                return
            if not isinstance(target, Event):
                self.generator.throw(
                    SimulationError(
                        f"process {self.name!r} yielded non-event {target!r}"
                    )
                )
                return
            if target._triggered and not isinstance(target, Timeout):
                # Already-fired event: resume immediately (same timestamp).
                self._waiting_on = self._wake(target._ok, target._value)
            else:
                target.callbacks.append(self._resume)
                self._waiting_on = target
        finally:
            sim.active_process = previous_active


class _Condition(Event):
    """Shared machinery for :class:`AllOf` / :class:`AnyOf`."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        self._pending = 0
        for ev in self.events:
            if not isinstance(ev, Event):
                raise SimulationError(f"condition over non-event {ev!r}")
        for ev in self.events:
            if ev.triggered and not isinstance(ev, Timeout):
                self._observe(ev)
            else:
                self._pending += 1
                ev.callbacks.append(self._observe)
        if not self.events and not self._triggered:
            self.succeed([])

    def _observe(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every constituent event has fired (a barrier).

    The value is the list of constituent values in constructor order.  If any
    constituent fails, the barrier fails with that exception.
    """

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending <= 0 and all(ev.triggered for ev in self.events):
            self.succeed([ev.value for ev in self.events])


class AnyOf(_Condition):
    """Fires as soon as any constituent event fires, with that event's value."""

    def _observe(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(event.value)


class Simulator:
    """Event-heap discrete-event simulator.

    Time is a ``float`` in seconds starting at 0.  All scheduling is
    deterministic: simultaneous events run in scheduling order.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List = []
        self._seq = itertools.count()
        self._processed = 0
        #: Observability hooks (see :mod:`repro.obs`): a Tracer attaches
        #: itself here, a MetricsRegistry may be attached by the deployment
        #: (ADA does).
        self.tracer: Optional[Any] = None
        self.metrics: Optional[Any] = None
        #: The process whose generator is running right now (None between
        #: resumes); maintained by ``Process._resume``.
        self.active_process: Optional[Process] = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events dispatched so far (diagnostics).  A trigger
        nobody was subscribed to is not dispatched, so not counted."""
        return self._processed

    def due_now(self) -> bool:
        """Whether a heap entry fires at the current instant."""
        heap = self._heap
        return bool(heap) and heap[0][0] <= self._now

    # -- event factories -----------------------------------------------------

    def event(self) -> Event:
        """A fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, when: float, value: Any = None) -> Timeout:
        """An event firing at absolute time ``when``: exactly where a chain
        of timeouts summed into it ends (``now + (when - now)`` may not)."""
        return Timeout(self, 0.0, value, at=when)

    def process(self, generator: Generator, name: Optional[str] = None) -> Process:
        """Start ``generator`` as a process; returns the process-as-event."""
        return Process(self, generator, name=name)

    # -- scheduling / main loop ----------------------------------------------

    def _schedule(self, event: Event, delay: float) -> None:
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), event))

    def run(self, until: Optional[float] = None) -> float:
        """Dispatch events until the heap drains (or ``until`` is reached).

        Returns the final simulation time.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if until is not None and heap[0][0] > until:
                self._now = until
                return until
            when, _, event = pop(heap)
            if when > self._now:
                self._now = when
            elif when < self._now - 1e-12:
                raise SimulationError("event scheduled in the past")
            self._processed += 1
            callbacks, event.callbacks = event.callbacks, []
            for callback in callbacks:
                callback(event)
        if until is not None:
            self._now = max(self._now, until)
        return self._now

    def run_process(self, generator: Generator, name: Optional[str] = None) -> Any:
        """Convenience: run ``generator`` to completion and return its value.

        Raises whatever the process raised.
        """
        proc = self.process(generator, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} never completed (deadlock: "
                f"{len(self._heap)} events pending)"
            )
        if not proc.ok:
            raise proc.value
        return proc.value

"""Start-time fair queuing request scheduler.

The serving front end multiplexes many tenants over one middleware; this
module decides *who goes next*.  Every tenant is one flow with an equal
share, scheduled by start-time fair queuing (SFQ):

* a submitted request is stamped with virtual start/finish tags
  ``start = max(V, flow_finish)``, ``finish = start + cost`` where
  ``cost`` is the request's byte estimate, so fairness is
  *byte-weighted*, not request-counted;
* dispatch always picks the backlogged request with the smallest finish
  tag, tie-broken deterministically by ``(finish, tenant, seq)`` -- under
  the sim clock two identical runs schedule identically;
* the virtual clock ``V`` advances to the start tag of the dispatched
  request, which bounds how far a backlogged flow can run ahead and
  yields the textbook starvation-freedom guarantee: a new flow starts at
  ``V``, not behind another flow's backlog.

``concurrency`` slots (a :class:`~repro.sim.resources.Resource`) bound
how many requests execute at once; the execution itself is an injectable
``dispatch`` callable returning a DES generator, so property tests can
drive the scheduler with a stub executor and the serving front end plugs
in the real ADA paths.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Generator, List, Optional

from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry, TIME_BUCKETS
from repro.obs.trace import span
from repro.sim import Event, Process, Resource, Simulator

__all__ = ["ServeRequest", "RequestScheduler"]


@dataclass
class ServeRequest:
    """One queued unit of tenant work, stamped with its SFQ tags.

    ``payload`` is opaque to the scheduler; the injected ``dispatch``
    callable interprets it.  ``done`` fires with the dispatch result (or
    fails with its exception) when execution completes; a request its
    caller runs in place (:meth:`RequestScheduler.call`) has no ``done``.
    """

    tenant: str
    kind: str
    payload: Dict[str, object] = field(default_factory=dict)
    cost_bytes: int = 1
    seq: int = -1
    submitted_s: float = 0.0
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    start_tag: float = 0.0
    finish_tag: float = 0.0
    served_bytes: int = 0
    error: Optional[BaseException] = None
    done: Optional[Event] = None

    @property
    def wait_s(self) -> float:
        started = self.started_s if self.started_s is not None else self.submitted_s
        return started - self.submitted_s

    @property
    def latency_s(self) -> Optional[float]:
        if self.finished_s is None:
            return None
        return self.finished_s - self.submitted_s

    @property
    def ok(self) -> bool:
        return self.finished_s is not None and self.error is None


class RequestScheduler:
    """Drains per-tenant FIFO queues in fair finish-tag order."""

    def __init__(
        self,
        sim: Simulator,
        dispatch: Callable[[ServeRequest], Generator],
        concurrency: int = 4,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if int(concurrency) < 1:
            raise ConfigurationError(
                f"scheduler concurrency {concurrency} must be >= 1"
            )
        self.sim = sim
        self.dispatch = dispatch
        self.concurrency = int(concurrency)
        self.slots = Resource(sim, capacity=self.concurrency, name="serve.slots")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._queues: Dict[str, Deque[ServeRequest]] = {}
        self._backlog = 0  # requests queued across all tenants
        self._flow_finish: Dict[str, float] = {}
        self._vtime = 0.0
        self._seq = itertools.count()
        self._wake: Optional[Event] = None
        self._caller_runs = False  # set by ``call`` around its submit
        #: Completed (ok or failed) requests per tenant, in finish order.
        self.completed: Dict[str, List[ServeRequest]] = {}
        self._tenant_metrics: Dict[str, Dict[str, object]] = {}
        # The drain loop starts idle and parks on a wake event; it is
        # spawned eagerly so its process and trace context are the (empty)
        # construction scope, never some tenant's.
        self._loop: Process = self.sim.process(self._run(), name="serve.scheduler")

    # -- submission ---------------------------------------------------------

    @property
    def backlog(self) -> int:
        return self._backlog

    def submit(self, request: ServeRequest) -> ServeRequest:
        """Stamp, enqueue, and (eventually) execute one request.

        Synchronous bookkeeping: the caller gets the request back with
        ``done`` armed; waiting on it is optional (open-loop tenants fire
        and forget, closed-loop tenants submit through :meth:`call`).
        """
        tenant = request.tenant
        request.seq = next(self._seq)
        request.submitted_s = self.sim.now
        cost = max(1, int(request.cost_bytes))
        start = max(self._vtime, self._flow_finish.get(tenant, 0.0))
        request.start_tag = start
        request.finish_tag = self._flow_finish[tenant] = start + cost
        self._metrics_for(tenant)["queued"].inc()
        if self._caller_runs:  # ``call`` runs it now: the queue's next pick
            self._caller_runs = False
            self._vtime = start
            return request
        request.done = Event(self.sim)
        self._queues.setdefault(tenant, deque()).append(request)
        self._backlog += 1
        self._kick()
        return request

    def call(self, submit: Callable[[], ServeRequest]) -> Generator:
        """Closed loop: ``submit()`` one request, wait, return its result.

        With nothing queued, a slot free, a process calling and no other
        event due now, the queue would dispatch it next with nothing in
        between, so the caller's process runs ``_execute`` itself: tags,
        virtual time, billing and every timestamp come out the same.  Its
        slot is ``acquire``-d and it has no ``done``: nobody waits on either.
        """
        sim = self.sim
        caller = sim.active_process
        self._caller_runs = direct = (
            caller is not None and not self._backlog
            and self.slots.in_use < self.concurrency and not sim.due_now()
        )
        try:
            request = submit()
        finally:
            self._caller_runs = False
        if not direct:
            return (yield request.done)
        self.slots.acquire()
        context = caller.context
        try:
            result = yield from self._execute(request, self.slots)
        finally:
            caller.context = context
        if sim.due_now():
            # Resume where the ``done`` wake would have: after what is due.
            yield sim.timeout(0)
        if request.error is not None:
            raise request.error
        return result

    # -- the drain loop -----------------------------------------------------

    def _kick(self) -> None:
        wake, self._wake = self._wake, None
        if wake is not None and not wake.triggered:
            wake.succeed(None)

    def _run(self) -> Generator:
        while True:
            if not self.backlog:
                self._wake = Event(self.sim)
                yield self._wake
                continue
            grant = self.slots.request()
            yield grant
            # Pop at *grant* time, not request time: requests that arrived
            # while we waited for a slot compete for this dispatch.
            request = self._pop_next()
            if request is None:
                grant.release()
                continue
            self.sim.process(
                self._execute(request, grant),
                name=f"serve.exec:{request.tenant}:{request.seq}",
            )

    def _pop_next(self) -> Optional[ServeRequest]:
        best_tenant: Optional[str] = None
        best_key = None
        for tenant in sorted(self._queues):
            queue = self._queues[tenant]
            if not queue:
                continue
            head = queue[0]
            key = (head.finish_tag, tenant, head.seq)
            if best_key is None or key < best_key:
                best_key, best_tenant = key, tenant
        if best_tenant is None:
            return None
        request = self._queues[best_tenant].popleft()
        self._backlog -= 1
        self._vtime = max(self._vtime, request.start_tag)
        return request

    def _execute(self, request: ServeRequest, grant) -> Generator:
        """Run one request here and return its result; ``grant.release()``
        frees its slot (a granted ``Request``, or the acquired ``slots``)."""
        sim = self.sim
        # Everything this process (and whatever it spawns) does from here
        # on is on the tenant's behalf -- see ``span_tenant_source``.
        sim.active_process.context = request.tenant
        request.started_s = sim.now
        tm = self._metrics_for(request.tenant)
        tm["wait"].observe(request.started_s - request.submitted_s)
        result = None
        try:
            if sim.tracer is None:
                result = yield from self.dispatch(request)
            else:
                result = yield from self._traced_dispatch(request)
        except (Exception, GeneratorExit) as exc:  # noqa: BLE001 - to waiter
            # A caller closed mid-request (``call``) still completes it.
            request.error = exc
        request.finished_s = sim.now
        tm["latency"].observe(request.finished_s - request.submitted_s)
        if request.error is None:
            tm["completed"].inc()
            tm["bytes"].inc(request.served_bytes)
        else:
            tm["failed"].inc()
        self.completed.setdefault(request.tenant, []).append(request)
        grant.release()
        if sim.due_now():
            # Alone at this instant the loop would wake to an empty queue
            # and park again; only a same-instant neighbour can change that.
            self._kick()
        if request.done is None:
            return result
        if request.error is None:
            request.done.succeed(result)
        else:
            # Failing an event nobody waits on is silent by design: an
            # open-loop tenant learns about failures from the counters.
            request.done.fail(request.error)
        return result

    def _traced_dispatch(self, request: ServeRequest) -> Generator:
        """``dispatch`` under a zero-duration ``serve.schedule`` marker
        (the dispatch decision) and the ``serve.request`` span."""
        sim = self.sim
        with span(
            sim, "serve.schedule",
            tenant=request.tenant, seq=request.seq,
            cost_bytes=request.cost_bytes,
            finish_tag=round(request.finish_tag, 6),
            wait_s=round(request.started_s - request.submitted_s, 9),
        ):
            pass
        with span(
            sim, "serve.request",
            tenant=request.tenant, kind=request.kind, seq=request.seq,
        ) as sp:
            result = yield from self.dispatch(request)
            sp.tag(served_bytes=request.served_bytes)
        return result

    # -- reporting ----------------------------------------------------------

    def _metrics_for(self, tenant: str) -> Dict[str, object]:
        tm = self._tenant_metrics.get(tenant)
        if tm is None:
            counter = self.metrics.counter
            tm = {
                field: counter(f"serve_{name}_total", tenant=tenant)
                for field, name in (
                    ("queued", "requests"), ("completed", "completed"),
                    ("failed", "failed"), ("bytes", "served_bytes"),
                )
            }
            for field in ("wait", "latency"):
                tm[field] = self.metrics.histogram(
                    f"serve_{field}_seconds", TIME_BUCKETS, tenant=tenant
                )
            self.metrics.gauge(
                "serve_queue_depth",
                fn=lambda t=tenant: float(len(self._queues.get(t) or ())),
                tenant=tenant,
            )
            self._tenant_metrics[tenant] = tm
        return tm

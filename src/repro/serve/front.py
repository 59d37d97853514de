"""The in-process multi-tenant serving front end.

:class:`ServeFront` composes one shared :class:`~repro.core.ADA`
middleware with the serving-layer pieces::

    Session.submit --> ServeFront.submit  (in-flight cap, typed rejection)
                   --> RequestScheduler   (start-time fair queuing)
                   --> ADA.fetch_chunks / fetch / fetch_merged / ingest_stream

Each tenant is one :class:`~repro.serve.session.Tenant` record in
``ServeFront.tenants``.  ``register`` pushes its node policy to every
member once: the cache quota to each :class:`TenantBlockCache`, the
prefetch budget to each prefetcher's ``budgets``.

Tenant attribution is ambient: the scheduler stamps the tenant on the
DES process executing a request (``Process.context``), and the cache and
the prefetcher read it from the running process, so *every* cache
admission and speculative read deep inside the middleware is billed to
the right tenant -- including background prefetch processes, which
inherit the demand fetch's context.  Serving is traced like every other
layer: attach a :class:`~repro.obs.Tracer` to the simulator and the
``serve.*`` spans appear; without one nothing is recorded.

The front has no fault site of its own: faults are injected where
hardware fails (attach a :class:`~repro.faults.FaultPlan` to ``ada``), and
the middleware's retries absorb the transient ones.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.middleware import ADA
from repro.errors import AdmissionRejected, ConfigurationError, ReproError
from repro.obs.trace import NULL_SPAN, span
from repro.serve.fairshare import TenantBlockCache
from repro.serve.scheduler import RequestScheduler, ServeRequest
from repro.serve.session import Session, Tenant

__all__ = ["ServeFront"]

#: Request kinds the dispatcher understands (one per ADA read/write path).
KINDS = ("fetch_chunks", "fetch", "fetch_merged", "ingest_stream")


class ServeFront:
    """Multiplexes N tenant sessions over one shared ADA middleware."""

    def __init__(self, ada: ADA, concurrency: int = 4):
        self.ada = ada
        self.sim = ada.sim
        self.metrics = ada.metrics
        self.tenants: Dict[str, Tenant] = {}
        self.scheduler = RequestScheduler(
            self.sim,
            dispatch=self._execute_kind,
            concurrency=concurrency,
            metrics=self.metrics,
        )

    # -- tenant lifecycle ---------------------------------------------------

    def register(
        self,
        name: str,
        max_inflight: int = 8,
        cache_quota_bytes: Optional[int] = None,
        prefetch_budget_bytes: Optional[int] = None,
        precision: str = "full",
    ) -> Session:
        """Register a tenant, push its node policy, return its session."""
        tenant = Tenant(
            name=name,
            max_inflight=max_inflight,
            cache_quota_bytes=cache_quota_bytes,
            prefetch_budget_bytes=prefetch_budget_bytes,
            precision=precision,
        )
        if name in self.tenants:
            raise ConfigurationError(f"tenant {name!r} already registered")
        members = self.ada.members()
        # The reservation and the budget are per node: every member takes them.
        for member in members:
            cache = member.block_cache
            if cache_quota_bytes is not None and not isinstance(
                cache, TenantBlockCache
            ):
                found = "no cache" if cache is None else type(cache).__name__
                raise ConfigurationError(
                    "cache_quota_bytes needs a TenantBlockCache on "
                    f"every node of the deployment; one has {found}"
                )
            if prefetch_budget_bytes is not None and member.prefetcher is None:
                raise ConfigurationError(
                    "prefetch_budget_bytes needs a prefetcher on every node "
                    "of the deployment; one has none"
                )
        self.tenants[name] = tenant
        self.metrics.gauge(
            "serve_inflight", fn=lambda: float(tenant.inflight), tenant=name
        )
        for member in members:
            if cache_quota_bytes is not None:
                member.block_cache.set_quota(name, cache_quota_bytes)
            if prefetch_budget_bytes is not None:
                member.prefetcher.budgets[name] = float(prefetch_budget_bytes)
        return Session(self, name)

    def session(self, name: str) -> Session:
        """A (new) handle onto an already-registered tenant."""
        if name not in self.tenants:
            raise ConfigurationError(f"unknown tenant {name!r}")
        return Session(self, name)

    # -- submission ---------------------------------------------------------

    def submit(
        self, tenant: str, kind: str, payload: Dict[str, object],
    ) -> ServeRequest:
        """Admission-check and enqueue one request (synchronous)."""
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown serve request kind {kind!r}; expected one of {KINDS}"
            )
        cost = self._estimate_cost(kind, payload)
        record = self.tenants.get(tenant)
        if record is None:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        with NULL_SPAN if self.sim.tracer is None else span(
            self.sim, "serve.admit", tenant=tenant
        ) as sp:
            if record.inflight + 1 > record.max_inflight:
                self.metrics.counter(
                    "serve_rejected_total", tenant=tenant, reason="inflight"
                ).inc()
                sp.tag(admitted=False, reason="inflight")
                raise AdmissionRejected(
                    tenant, "in-flight requests",
                    record.max_inflight, record.inflight + 1,
                )
            record.inflight += 1
            counter = record.admitted
            if counter is None:
                counter = record.admitted = self.metrics.counter(
                    "serve_admitted_total", tenant=tenant
                )
            counter.inc()
            if sp is not NULL_SPAN:
                sp.tag(admitted=True)
        request = ServeRequest(
            tenant=tenant, kind=kind, payload=dict(payload), cost_bytes=cost,
        )
        return self.scheduler.submit(request)

    def _estimate_cost(self, kind: str, payload: Dict[str, object]) -> int:
        """Byte estimate used as the request's SFQ cost.

        Index metadata is synchronous bookkeeping in this repo's
        convention, so sizing from the subset records is free; unknown
        datasets fall back to cost 1 and fail inside dispatch instead.
        """
        try:
            if kind == "fetch_chunks":
                nbytes = self.ada.chunks_nbytes(
                    payload["logical"], payload["tag"],
                    payload.get("chunks") or (),
                )
            elif kind == "fetch":
                nbytes = self.ada.subset_nbytes(
                    payload["logical"], payload["tag"]
                )
            elif kind == "fetch_merged":
                nbytes = self.ada.container_nbytes(payload["logical"])
            else:  # ingest_stream; submit() rejected every other kind
                nbytes = len(payload["blob"])
        except ReproError:
            return 1
        return max(1, int(nbytes))

    # -- dispatch (runs in whichever process executes the request) ---------

    def _execute_kind(self, request: ServeRequest) -> Generator:
        payload = request.payload
        tenant = self.tenants[request.tenant]
        try:
            # The read tier: payload override, else tenant policy (the
            # data plane validates it).
            precision = payload.get("precision")
            if precision is None and request.kind != "ingest_stream":
                precision = tenant.precision
            if request.kind == "fetch_chunks":
                objs = yield from self.ada.fetch_chunks(
                    payload["logical"], payload["tag"], payload["chunks"],
                    precision=precision,
                )
                request.served_bytes = int(sum([o.nbytes for o in objs]))
                return objs
            if request.kind == "fetch":
                obj = yield from self.ada.fetch(
                    payload["logical"], payload["tag"], precision=precision
                )
                request.served_bytes = int(obj.nbytes)
                return obj
            if request.kind == "fetch_merged":
                obj = yield from self.ada.fetch_merged(
                    payload["logical"], precision=precision
                )
                request.served_bytes = int(obj.nbytes)
                return obj
            # Guarded in submit(); only ingest_stream remains.
            result = yield from self.ada.ingest_stream(
                payload["logical"],
                payload["blob"],
                pdb_text=payload.get("pdb_text"),
            )
            request.served_bytes = len(payload["blob"])
            return result
        finally:
            tenant.release()  # however the request ends, at that instant

"""The in-process multi-tenant serving front end.

:class:`ServeFront` composes one shared :class:`~repro.core.ADA`
middleware with the serving-layer pieces::

    Session.submit --> SessionManager.admit (typed rejection)
                   --> RequestScheduler     (WFQ, nice-levels)
                   --> per-tenant fault gate + bounded retries
                   --> ADA.fetch_chunks / fetch / fetch_merged / ingest_stream

Tenant attribution is ambient: the scheduler stamps the tenant on the
DES process executing a request (``Process.context``), and the front
wires a source reading it into the :class:`TenantBlockCache` and the
prefetcher, so *every* cache admission and speculative read deep inside
the middleware is billed to the right tenant -- including background
prefetch processes, which inherit the demand fetch's context.  Serving
is traced like every other layer: attach a :class:`~repro.obs.Tracer`
to the simulator (or pass ``ADA(tracer=...)``) and the ``serve.*`` spans
appear; without one nothing is recorded.

Per-tenant device faults are modeled at the serving boundary: when a
:class:`~repro.faults.FaultPlan` is supplied, every dispatched request
first consults the ``serve:<tenant>`` site, paying injected latency and
transient errors through a bounded :class:`~repro.faults.Retrier`.
Because the retries run *inside the faulty tenant's concurrency slot and
WFQ flow*, a misbehaving tenant burns only its own share -- the
non-monopolization property the chaos suite pins.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.lod import validate_precision
from repro.core.middleware import ADA
from repro.errors import ConfigurationError, ReproError
from repro.faults.plan import FaultPlan, raise_fault
from repro.faults.retry import Retrier, RetryPolicy, RetryStats
from repro.serve.fairshare import TenantBlockCache, span_tenant_source
from repro.serve.scheduler import RequestScheduler, ServeRequest
from repro.serve.session import Session, SessionManager, TenantConfig

__all__ = ["ServeFront"]

#: Request kinds the dispatcher understands (one per ADA read/write path).
KINDS = ("fetch_chunks", "fetch", "fetch_merged", "ingest_stream")


class ServeFront:
    """Multiplexes N tenant sessions over one shared ADA middleware."""

    def __init__(
        self,
        ada: ADA,
        concurrency: int = 4,
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.ada = ada
        # The serving layer's own degradation signal for "auto" reads: a
        # WFQ backlog deeper than twice the slot count means demand
        # outruns the slots, so auto-tier tenants drop to the cheap LOD
        # layer until the queues drain.
        self.lod_backlog = 2 * int(concurrency)
        self.sim = ada.sim
        self.metrics = ada.metrics
        self.tenant_source = span_tenant_source(self.sim)
        # Every node's cache and prefetcher bill the ambient tenant (a
        # shard node joining later copies this wiring from its peers).
        for member in ada.members():
            cache, prefetcher = member.block_cache, member.prefetcher
            if isinstance(cache, TenantBlockCache) and (
                cache.tenant_source is None
            ):
                cache.tenant_source = self.tenant_source
            if prefetcher is not None:
                if prefetcher.tenant_source is None:
                    prefetcher.tenant_source = self.tenant_source
                if prefetcher.budget_source is None:
                    prefetcher.budget_source = self._prefetch_budget
        self.sessions = SessionManager(self.sim, self.metrics)
        self.scheduler = RequestScheduler(
            self.sim,
            dispatch=self._dispatch,
            concurrency=concurrency,
            metrics=self.metrics,
        )
        self.fault_plan = fault_plan
        # Serve-boundary retries count into the deployment's registry,
        # apart from the middleware's own ``retry_*`` series.
        self._retrier = (
            Retrier(
                self.sim,
                policy=retry_policy,
                stats=RetryStats(
                    metrics=self.metrics, metric_labels={"layer": "serve"}
                ),
            )
            if fault_plan is not None
            else None
        )

    # -- tenant lifecycle ---------------------------------------------------

    def register(
        self,
        name: str,
        nice: int = 0,
        max_inflight: int = 8,
        byte_budget: Optional[int] = None,
        cache_quota_bytes: Optional[int] = None,
        prefetch_budget_bytes: Optional[int] = None,
        precision: str = "full",
    ) -> Session:
        """Register a tenant and return its session handle."""
        config = TenantConfig(
            name=name,
            nice=nice,
            max_inflight=max_inflight,
            byte_budget=byte_budget,
            cache_quota_bytes=cache_quota_bytes,
            prefetch_budget_bytes=prefetch_budget_bytes,
            precision=precision,
        )
        caches = []
        if cache_quota_bytes is not None:
            # The reservation is per node: every member's cache takes it.
            caches = [member.block_cache for member in self.ada.members()]
            for cache in caches:
                if not isinstance(cache, TenantBlockCache):
                    found = "no cache" if cache is None else type(cache).__name__
                    raise ConfigurationError(
                        "cache_quota_bytes needs a TenantBlockCache on "
                        f"every node of the deployment; one has {found}"
                    )
        state = self.sessions.register(config)
        for cache in caches:
            cache.set_quota(name, cache_quota_bytes)
        return Session(self, state)

    def session(self, name: str) -> Session:
        """A (new) handle onto an already-registered tenant."""
        return Session(self, self.sessions.get(name))

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        tenant: str,
        kind: str,
        payload: Dict[str, object],
        nice: Optional[int] = None,
    ) -> ServeRequest:
        """Admission-check and enqueue one request (synchronous)."""
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown serve request kind {kind!r}; expected one of {KINDS}"
            )
        state = self.sessions.get(tenant)
        cost = self._estimate_cost(kind, payload)
        self.sessions.admit(tenant, cost)  # raises AdmissionRejected
        request = ServeRequest(
            tenant=tenant, kind=kind, payload=dict(payload),
            nice=state.config.nice if nice is None else int(nice),
            cost_bytes=cost,
            on_complete=lambda req: self.sessions.release(tenant, cost),
        )
        return self.scheduler.submit(request)

    def _estimate_cost(self, kind: str, payload: Dict[str, object]) -> int:
        """Byte estimate used for admission budgets and WFQ cost.

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

    def _dispatch(self, request: ServeRequest) -> Generator:
        if self.fault_plan is None:
            result = yield from self._attempt(request)
            return result
        result = yield from self._retrier.call(
            lambda: self._attempt(request),
            key=f"serve:{request.tenant}:{request.seq}",
        )
        return result

    def _attempt(self, request: ServeRequest) -> Generator:
        if self.fault_plan is not None:
            # The tenant's "device": faults at the serving boundary hit
            # every request of this tenant and nobody else's.
            site = f"serve:{request.tenant}"
            decision = self.fault_plan.decide(site, request.kind)
            if decision.latency_s:
                yield self.sim.timeout(decision.latency_s)
            if decision.error is not None:
                raise_fault(decision.error, site, request.kind)
        result = yield from self._execute_kind(request)
        return result

    def _resolve_precision(self, request: ServeRequest) -> str:
        """The request's read tier: payload override, else tenant policy.

        ``"auto"`` additionally folds in the serving layer's own pressure
        signal -- a WFQ backlog past :attr:`lod_backlog` resolves auto
        straight to the LOD tier; otherwise the middleware's cache and
        fault watermarks decide (see :meth:`ADA._resolve_tier`).
        """
        precision = request.payload.get("precision")
        if precision is None:
            precision = self.sessions.get(request.tenant).config.precision
        precision = validate_precision(precision)
        if precision == "auto" and self.scheduler.backlog > self.lod_backlog:
            self.metrics.counter(
                "serve_lod_backlog_total", tenant=request.tenant
            ).inc()
            return "lod"
        return precision

    def _execute_kind(self, request: ServeRequest) -> Generator:
        payload = request.payload
        if request.kind != "ingest_stream":
            precision = self._resolve_precision(request)
        if request.kind == "fetch_chunks":
            objs = yield from self.ada.fetch_chunks(
                payload["logical"], payload["tag"], payload["chunks"],
                precision=precision,
            )
            request.served_bytes = int(sum(o.nbytes for o in objs))
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

    # -- wiring helpers ------------------------------------------------------

    def _prefetch_budget(self, tenant: str) -> Optional[float]:
        try:
            state = self.sessions.get(tenant)
        except ConfigurationError:
            return None
        budget = state.config.prefetch_budget_bytes
        return None if budget is None else float(budget)

    # -- reporting -----------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "scheduler": self.scheduler.stats(),
            "sessions": self.sessions.stats(),
        }

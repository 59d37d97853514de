"""The in-process multi-tenant serving front end.

:class:`ServeFront` composes one shared :class:`~repro.core.ADA`
middleware with the serving-layer pieces::

    Session.submit --> SessionManager.admit (typed rejection)
                   --> RequestScheduler     (start-time fair queuing)
                   --> ADA.fetch_chunks / fetch / fetch_merged / ingest_stream

Tenant attribution is ambient: the scheduler stamps the tenant on the
DES process executing a request (``Process.context``), and the front
wires a source reading it into the :class:`TenantBlockCache` and the
prefetcher, so *every* cache admission and speculative read deep inside
the middleware is billed to the right tenant -- including background
prefetch processes, which inherit the demand fetch's context.  Serving
is traced like every other layer: attach a :class:`~repro.obs.Tracer`
to the simulator and the ``serve.*`` spans appear; without one nothing
is recorded.

The front has no fault site of its own: faults are injected where
hardware fails (attach a :class:`~repro.faults.FaultPlan` to ``ada``), and
the middleware's retries absorb the transient ones.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.middleware import ADA
from repro.errors import ConfigurationError, ReproError
from repro.serve.fairshare import TenantBlockCache, span_tenant_source
from repro.serve.scheduler import RequestScheduler, ServeRequest
from repro.serve.session import Session, SessionManager, TenantConfig

__all__ = ["ServeFront"]

#: Request kinds the dispatcher understands (one per ADA read/write path).
KINDS = ("fetch_chunks", "fetch", "fetch_merged", "ingest_stream")


class ServeFront:
    """Multiplexes N tenant sessions over one shared ADA middleware."""

    def __init__(self, ada: ADA, concurrency: int = 4):
        self.ada = ada
        self.sim = ada.sim
        self.metrics = ada.metrics
        self.tenant_source = span_tenant_source(self.sim)
        # Every node's cache and prefetcher bill the ambient tenant (a
        # sharded front's membership is fixed, so every node is here).
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
        """Register a tenant and return its session handle."""
        config = TenantConfig(
            name=name,
            max_inflight=max_inflight,
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
        self, tenant: str, kind: str, payload: Dict[str, object],
    ) -> ServeRequest:
        """Admission-check and enqueue one request (synchronous)."""
        if kind not in KINDS:
            raise ConfigurationError(
                f"unknown serve request kind {kind!r}; expected one of {KINDS}"
            )
        cost = self._estimate_cost(kind, payload)
        self.sessions.admit(tenant)  # raises AdmissionRejected
        request = ServeRequest(
            tenant=tenant, kind=kind, payload=dict(payload),
            cost_bytes=cost,
            on_complete=lambda req: self.sessions.release(tenant),
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

    def _resolve_precision(self, request: ServeRequest) -> str:
        """The request's read tier: payload override, else tenant policy
        (the data plane validates it)."""
        precision = request.payload.get("precision")
        if precision is None:
            return self.sessions.get(request.tenant).config.precision
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

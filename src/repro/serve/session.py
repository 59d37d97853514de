"""Per-tenant session handles and admission control.

:class:`SessionManager` owns the tenant registry and the admission
gate: each tenant is bounded by a maximum number of in-flight requests
(admitted but not yet completed).  A breach raises the typed
:class:`~repro.errors.AdmissionRejected` synchronously at submit time,
so a misbehaving tenant cannot even grow the scheduler's queues, let
alone another tenant's latency.

:class:`Session` is the handle the front end returns from
``register()``: thin DES-generator wrappers (``fetch_chunks`` /
``fetch`` / ``fetch_merged`` / ``ingest_stream``) around submit+wait,
plus a fire-and-forget ``submit`` for open-loop traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional

from repro.core.lod import validate_precision
from repro.errors import (
    AdmissionRejected, ConfigurationError, SimulationError,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.serve.scheduler import ServeRequest

__all__ = ["TenantConfig", "TenantState", "SessionManager", "Session"]


@dataclass
class TenantConfig:
    """Admission limit, cache shares and read tier for one tenant."""

    name: str
    max_inflight: int = 8
    cache_quota_bytes: Optional[int] = None  # reserved L1 share
    prefetch_budget_bytes: Optional[int] = None  # speculative-byte cap
    #: Default read tier for this tenant's requests ("full"/"lod"); a
    #: per-request ``precision`` payload key overrides it.  Scrubbing
    #: viewers register "lod" (cheap frames), pinned analyses keep the
    #: "full" default (exact bytes, always).
    precision: str = "full"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        validate_precision(self.precision)
        if int(self.max_inflight) < 1:
            raise ConfigurationError(
                f"max_inflight {self.max_inflight} must be >= 1"
            )


class TenantState:
    """Live admission accounting for one registered tenant."""

    __slots__ = ("config", "inflight", "admitted_counter")

    def __init__(self, config: TenantConfig):
        self.config = config
        self.inflight = 0
        #: ``serve_admitted_total{tenant}``, held from the first admission
        #: (a tenant that never submits exports no series).
        self.admitted_counter = None


class SessionManager:
    """Tenant registry plus the synchronous admission gate."""

    def __init__(self, sim, metrics: Optional[MetricsRegistry] = None):
        self.sim = sim
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._tenants: Dict[str, TenantState] = {}

    def register(self, config: TenantConfig) -> TenantState:
        if config.name in self._tenants:
            raise ConfigurationError(
                f"tenant {config.name!r} already registered"
            )
        state = TenantState(config)
        self._tenants[config.name] = state
        self.metrics.gauge(
            "serve_inflight",
            fn=lambda s=state: float(s.inflight),
            tenant=config.name,
        )
        return state

    def get(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        return state

    def admit(self, tenant: str) -> None:
        """Charge one request against the tenant's in-flight cap or reject
        it."""
        state = self.get(tenant)
        config = state.config
        with span(self.sim, "serve.admit", tenant=tenant) as sp:
            if state.inflight + 1 > config.max_inflight:
                self.metrics.counter(
                    "serve_rejected_total", tenant=tenant, reason="inflight"
                ).inc()
                sp.tag(admitted=False, reason="inflight")
                raise AdmissionRejected(
                    tenant, "in-flight requests",
                    config.max_inflight, state.inflight + 1,
                )
            state.inflight += 1
            counter = state.admitted_counter
            if counter is None:
                counter = state.admitted_counter = self.metrics.counter(
                    "serve_admitted_total", tenant=tenant
                )
            counter.inc()
            sp.tag(admitted=True)

    def release(self, tenant: str) -> None:
        """Return one completed (or failed) request's admission charge."""
        state = self.get(tenant)
        state.inflight -= 1
        if state.inflight < 0:
            raise SimulationError(
                f"tenant {tenant!r} released more than it was admitted"
            )


class Session:
    """One tenant's handle onto the serving front end."""

    def __init__(self, front, state: TenantState):
        self._front = front
        self.state = state
        self.name = state.config.name

    # -- fire-and-forget (open-loop traffic) --------------------------------

    def submit(self, kind: str, **payload) -> ServeRequest:
        """Admit + enqueue; returns the request whose ``done`` event fires
        on completion.  Raises :class:`AdmissionRejected` synchronously."""
        return self._front.submit(self.name, kind, payload)

    # -- submit-and-wait conveniences (closed-loop traffic) ------------------

    def _call(self, kind: str, **payload) -> Generator:
        return (yield from self._front.scheduler.call(
            lambda: self.submit(kind, **payload)
        ))

    def fetch_chunks(
        self, logical: str, tag: str, chunks,
        precision: Optional[str] = None,
    ) -> Generator:
        return (yield from self._call(
            "fetch_chunks", logical=logical, tag=tag,
            chunks=list(chunks), precision=precision,
        ))

    def fetch(
        self, logical: str, tag: str, precision: Optional[str] = None,
    ) -> Generator:
        return (yield from self._call(
            "fetch", logical=logical, tag=tag, precision=precision,
        ))

    def fetch_merged(
        self, logical: str, precision: Optional[str] = None,
    ) -> Generator:
        return (yield from self._call(
            "fetch_merged", logical=logical, precision=precision,
        ))

    def ingest_stream(
        self, logical: str, blob: bytes, pdb_text: Optional[str] = None,
    ) -> Generator:
        return (yield from self._call(
            "ingest_stream", logical=logical, blob=blob, pdb_text=pdb_text,
        ))

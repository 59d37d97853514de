"""Per-tenant session handles and admission control.

:class:`SessionManager` owns the tenant registry and the admission
gate: each tenant is bounded by a maximum number of in-flight requests
and (optionally) a budget on *outstanding estimated bytes* -- admitted
but not yet completed work.  A breach raises the typed
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
from repro.serve.scheduler import NICE_MAX, NICE_MIN, ServeRequest, nice_weight

__all__ = ["TenantConfig", "TenantState", "SessionManager", "Session"]


@dataclass
class TenantConfig:
    """Admission limits, scheduling weight, and cache shares for one tenant."""

    name: str
    nice: int = 0
    max_inflight: int = 8
    byte_budget: Optional[int] = None  # outstanding estimated bytes
    cache_quota_bytes: Optional[int] = None  # reserved L1 share
    prefetch_budget_bytes: Optional[int] = None  # speculative-byte cap
    #: Default read tier for this tenant's requests ("full"/"lod"/"auto");
    #: a per-request ``precision`` payload key overrides it.  Interactive
    #: viewers register "auto" (cheap frames under load), pinned analyses
    #: keep the "full" default (exact bytes, always).
    precision: str = "full"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        validate_precision(self.precision)
        if not NICE_MIN <= int(self.nice) <= NICE_MAX:
            raise ConfigurationError(
                f"nice level {self.nice} outside [{NICE_MIN}, {NICE_MAX}]"
            )
        if int(self.max_inflight) < 1:
            raise ConfigurationError(
                f"max_inflight {self.max_inflight} must be >= 1"
            )
        if self.byte_budget is not None and int(self.byte_budget) < 1:
            raise ConfigurationError(
                f"byte budget {self.byte_budget} must be >= 1"
            )

    @property
    def weight(self) -> float:
        return nice_weight(self.nice)


class TenantState:
    """Live admission accounting for one registered tenant."""

    __slots__ = (
        "config", "inflight", "outstanding_bytes", "admitted_counter",
    )

    def __init__(self, config: TenantConfig):
        self.config = config
        self.inflight = 0
        self.outstanding_bytes = 0
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
        self.metrics.gauge(
            "serve_outstanding_bytes",
            fn=lambda s=state: float(s.outstanding_bytes),
            tenant=config.name,
        )
        return state

    def get(self, tenant: str) -> TenantState:
        state = self._tenants.get(tenant)
        if state is None:
            raise ConfigurationError(f"unknown tenant {tenant!r}")
        return state

    def admit(self, tenant: str, cost_bytes: int) -> None:
        """Charge one request against the tenant's limits or reject it."""
        state = self.get(tenant)
        config = state.config
        with span(
            self.sim, "serve.admit", tenant=tenant, cost_bytes=cost_bytes,
        ) as sp:
            if state.inflight + 1 > config.max_inflight:
                self.metrics.counter(
                    "serve_rejected_total", tenant=tenant, reason="inflight"
                ).inc()
                sp.tag(admitted=False, reason="inflight")
                raise AdmissionRejected(
                    tenant, "in-flight requests",
                    config.max_inflight, state.inflight + 1,
                )
            budget = config.byte_budget
            if (
                budget is not None
                and state.inflight > 0
                and state.outstanding_bytes + cost_bytes > budget
            ):
                # An idle tenant's first request always admits, however
                # large -- a budget smaller than one request must degrade
                # to serialization, not a permanent lockout.
                self.metrics.counter(
                    "serve_rejected_total", tenant=tenant, reason="bytes"
                ).inc()
                sp.tag(admitted=False, reason="bytes")
                raise AdmissionRejected(
                    tenant, "outstanding bytes",
                    budget, state.outstanding_bytes + cost_bytes,
                )
            state.inflight += 1
            state.outstanding_bytes += int(cost_bytes)
            counter = state.admitted_counter
            if counter is None:
                counter = state.admitted_counter = self.metrics.counter(
                    "serve_admitted_total", tenant=tenant
                )
            counter.inc()
            sp.tag(admitted=True)

    def release(self, tenant: str, cost_bytes: int) -> None:
        """Return one completed (or failed) request's admission charge."""
        state = self.get(tenant)
        state.inflight -= 1
        state.outstanding_bytes -= int(cost_bytes)
        if state.inflight < 0 or state.outstanding_bytes < 0:
            raise SimulationError(
                f"tenant {tenant!r} released more than it was admitted"
            )

    def stats(self) -> Dict[str, object]:
        """The registered tenants' policy (admission counts and in-flight
        gauges are the ``serve_*{tenant=...}`` registry series)."""
        return {
            name: {
                "nice": state.config.nice,
                "weight": state.config.weight,
                "max_inflight": state.config.max_inflight,
                "byte_budget": state.config.byte_budget,
                "precision": state.config.precision,
            }
            for name, state in sorted(self._tenants.items())
        }


class Session:
    """One tenant's handle onto the serving front end."""

    def __init__(self, front, state: TenantState):
        self._front = front
        self.state = state
        self.name = state.config.name

    # -- fire-and-forget (open-loop traffic) --------------------------------

    def submit(
        self, kind: str, nice: Optional[int] = None, **payload
    ) -> ServeRequest:
        """Admit + enqueue; returns the request whose ``done`` event fires
        on completion.  Raises :class:`AdmissionRejected` synchronously."""
        return self._front.submit(self.name, kind, payload, nice=nice)

    # -- submit-and-wait conveniences (closed-loop traffic) ------------------

    def _call(self, kind: str, nice: Optional[int], **payload) -> Generator:
        return (yield from self._front.scheduler.call(
            lambda: self.submit(kind, nice=nice, **payload)
        ))

    def fetch_chunks(
        self, logical: str, tag: str, chunks,
        nice: Optional[int] = None, precision: Optional[str] = None,
    ) -> Generator:
        return (yield from self._call(
            "fetch_chunks", nice, logical=logical, tag=tag,
            chunks=list(chunks), precision=precision,
        ))

    def fetch(
        self, logical: str, tag: str,
        nice: Optional[int] = None, precision: Optional[str] = None,
    ) -> Generator:
        return (yield from self._call(
            "fetch", nice, logical=logical, tag=tag, precision=precision,
        ))

    def fetch_merged(
        self, logical: str,
        nice: Optional[int] = None, precision: Optional[str] = None,
    ) -> Generator:
        return (yield from self._call(
            "fetch_merged", nice, logical=logical, precision=precision,
        ))

    def ingest_stream(
        self,
        logical: str,
        blob: bytes,
        pdb_text: Optional[str] = None,
        nice: Optional[int] = None,
    ) -> Generator:
        return (yield from self._call(
            "ingest_stream", nice, logical=logical, blob=blob,
            pdb_text=pdb_text,
        ))

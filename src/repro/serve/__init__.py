"""Multi-tenant serving layer: sessions, QoS scheduling, fair shares.

One :class:`~repro.core.ADA` middleware, many concurrent VMD sessions:

* :mod:`repro.serve.session` -- per-tenant handles and admission control
  (:class:`SessionManager`, typed :class:`~repro.errors.AdmissionRejected`);
* :mod:`repro.serve.scheduler` -- start-time fair queuing with equal
  shares (:class:`RequestScheduler`), deterministic under the sim clock;
* :mod:`repro.serve.fairshare` -- per-tenant block-cache quotas over a
  reclaimable shared pool (:class:`TenantBlockCache`);
* :mod:`repro.serve.front` -- :class:`ServeFront`, the composition that
  threads tenant context, faults, and observability through the stack;
* :mod:`repro.serve.traffic` -- deterministic closed/open-loop Zipf
  traffic for the fairness/latency benchmarks.
"""

from repro.serve.fairshare import TenantBlockCache, span_tenant_source
from repro.serve.front import ServeFront
from repro.serve.scheduler import RequestScheduler, ServeRequest
from repro.serve.session import (
    Session,
    SessionManager,
    TenantConfig,
    TenantState,
)
from repro.serve.traffic import (
    DatasetRef,
    TenantRunStats,
    TrafficConfig,
    TrafficGenerator,
)

__all__ = [
    "DatasetRef",
    "RequestScheduler",
    "ServeFront",
    "ServeRequest",
    "Session",
    "SessionManager",
    "TenantBlockCache",
    "TenantConfig",
    "TenantRunStats",
    "TenantState",
    "TrafficConfig",
    "TrafficGenerator",
    "span_tenant_source",
]

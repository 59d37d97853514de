"""One record per tenant, and the tenant's session handle.

:class:`Tenant` is everything the front end knows about one tenant: the
policy it registered (in-flight cap, cache quota, prefetch budget, default
read tier) and its live admission count.  :class:`~repro.serve.ServeFront`
keeps one per name, admits each request against ``max_inflight`` (a
breach raises the typed :class:`~repro.errors.AdmissionRejected`
synchronously, so a misbehaving tenant cannot even grow the scheduler's
queues) and returns the charge when the request finishes.

:class:`Session` is the handle ``register()`` returns: thin DES-generator
wrappers (``fetch_chunks`` / ``fetch`` / ``fetch_merged`` /
``ingest_stream``) around submit+wait, plus a fire-and-forget ``submit``
for open-loop traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.core.lod import validate_precision
from repro.errors import ConfigurationError, SimulationError
from repro.obs.metrics import Counter
from repro.serve.scheduler import ServeRequest

__all__ = ["Tenant", "Session"]


@dataclass
class Tenant:
    """A registered tenant's policy and its live in-flight count."""

    name: str
    max_inflight: int = 8
    cache_quota_bytes: Optional[int] = None  # reserved L1 share, per node
    prefetch_budget_bytes: Optional[int] = None  # speculative-byte cap
    #: Default read tier ("full"/"lod"); a per-request ``precision``
    #: overrides it.  Scrubbing viewers register "lod" (cheap frames),
    #: pinned analyses keep the "full" default (exact bytes, always).
    precision: str = "full"
    inflight: int = 0  # admitted, not yet finished
    #: ``serve_admitted_total{tenant}``, made on the first admission (a
    #: tenant that never submits exports no series).
    admitted: Optional[Counter] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        validate_precision(self.precision)
        if int(self.max_inflight) < 1:
            raise ConfigurationError(
                f"max_inflight {self.max_inflight} must be >= 1"
            )
        for knob in ("cache_quota_bytes", "prefetch_budget_bytes"):
            value = getattr(self, knob)
            if value is not None and value < 0:
                raise ConfigurationError(f"{knob} {value} must be >= 0")

    def release(self) -> None:
        """Return one finished request's admission charge."""
        if self.inflight < 1:
            raise SimulationError(
                f"tenant {self.name!r} released more than it was admitted"
            )
        self.inflight -= 1


class Session:
    """One tenant's handle onto the serving front end."""

    def __init__(self, front, name: str):
        self._front = front
        self.name = name

    # -- fire-and-forget (open-loop traffic) --------------------------------

    def submit(self, kind: str, **payload) -> ServeRequest:
        """Admit + enqueue; returns the request whose ``done`` event fires
        on completion.  Raises :class:`AdmissionRejected` synchronously."""
        return self._front.submit(self.name, kind, payload)

    # -- submit-and-wait conveniences (closed-loop traffic) ------------------

    def _call(self, kind: str, **payload) -> Generator:
        front = self._front  # not a generator: one frame less per resume
        return front.scheduler.call(
            lambda: front.submit(self.name, kind, payload)
        )

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

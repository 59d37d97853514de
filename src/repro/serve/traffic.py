"""Synthetic multi-tenant traffic: closed/open loops over Zipf-hot data.

The serving benchmarks need workloads that look like a fleet of VMD
users, not a single scripted reader:

* **closed loop** -- each tenant is one interactive user: issue a
  playback window, wait for it, repeat.  Offered load adapts to
  service rate (the classic interactive model);
* **open loop** -- requests arrive by a seeded Poisson process whether
  or not earlier ones finished, so queues (and the admission gate) are
  actually exercised;
* **Zipf-hot popularity** -- dataset choice follows a Zipf(s) rank
  distribution shared by all tenants, so a few hot trajectories
  dominate and tenants *contend* for the same cache lines, which is
  what makes fairness worth measuring.

Every random draw comes from a per-tenant ``random.Random`` seeded from
``(seed, tenant)``: a tenant's request sequence is identical whether it
runs alone or against seven neighbors -- the property the isolation
suite turns into a bit-identity assertion.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Sequence

from repro.errors import AdmissionRejected, ConfigurationError, FaultError
from repro.serve.session import Session

__all__ = ["DatasetRef", "TrafficConfig", "TenantRunStats", "TrafficGenerator"]


@dataclass(frozen=True)
class DatasetRef:
    """One fetchable subset: dataset, tag, and how many chunks it has."""

    logical: str
    tag: str
    nchunks: int


@dataclass
class TrafficConfig:
    mode: str = "closed"  # "closed" | "open"
    requests_per_tenant: int = 32
    window_chunks: int = 4  # chunks per playback window
    arrival_rate_hz: float = 200.0  # open-loop per-tenant Poisson rate
    zipf_s: float = 1.1  # popularity skew across the catalog
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("closed", "open"):
            raise ConfigurationError(f"traffic mode {self.mode!r} unknown")
        if self.requests_per_tenant < 1 or self.window_chunks < 1:
            raise ConfigurationError(
                "requests_per_tenant and window_chunks must be >= 1"
            )
        if self.arrival_rate_hz <= 0 or self.zipf_s < 0:
            raise ConfigurationError("invalid traffic rate/zipf")


@dataclass
class TenantRunStats:
    """What one tenant's loop observed (service data, not scheduling)."""

    tenant: str
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    served_bytes: int = 0
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def record_objs(self, objs) -> None:
        self.completed += 1
        for obj in objs:
            self.served_bytes += int(obj.nbytes)
            self.digest.update(obj.data if obj.data is not None else b"")

    def hexdigest(self) -> str:
        return self.digest.hexdigest()


class TrafficGenerator:
    """Drives registered sessions with deterministic synthetic traffic."""

    def __init__(self, catalog: Sequence[DatasetRef], config: TrafficConfig):
        if not catalog:
            raise ConfigurationError("traffic needs a non-empty catalog")
        self.catalog = list(catalog)
        self.config = config
        # Zipf(s) over catalog rank: weight 1/(rank+1)^s, cumulative table.
        weights = [
            1.0 / (rank + 1) ** config.zipf_s
            for rank in range(len(self.catalog))
        ]
        total = sum(weights)
        cumulative, acc = [], 0.0
        for w in weights:
            acc += w / total
            cumulative.append(acc)
        self._cumulative = cumulative

    # -- request-sequence generation ----------------------------------------

    def _rng(self, tenant: str) -> random.Random:
        return random.Random(f"{self.config.seed}/{tenant}")

    def _pick(self, rng: random.Random) -> DatasetRef:
        u = rng.random()
        for index, edge in enumerate(self._cumulative):
            if u <= edge:
                return self.catalog[index]
        return self.catalog[-1]

    def _window(
        self, positions: Dict[str, int], ref: DatasetRef
    ) -> List[int]:
        """Next sequential playback window on ``ref`` (wraps at EOF).

        Sequential per (tenant, dataset) -- like a user scrubbing forward
        -- so the stride detector can earn its keep under contention.
        """
        size = min(self.config.window_chunks, ref.nchunks)
        start = positions.get(ref.logical, 0)
        if start + size > ref.nchunks:
            start = 0
        positions[ref.logical] = start + size
        return list(range(start, start + size))

    def plan(self, tenant: str) -> List[List[object]]:
        """The tenant's full deterministic request sequence (for tests)."""
        rng = self._rng(tenant)
        positions: Dict[str, int] = {}
        out = []
        for _ in range(self.config.requests_per_tenant):
            ref = self._pick(rng)
            out.append([ref, self._window(positions, ref)])
        return out

    # -- the tenant loops ----------------------------------------------------

    def tenant_loop(self, session: Session) -> Generator:
        """DES process: run one tenant's traffic to completion.

        Returns the tenant's :class:`TenantRunStats`.
        """
        if self.config.mode == "closed":
            stats = yield from self._closed_loop(session)
        else:
            stats = yield from self._open_loop(session)
        return stats

    def _closed_loop(self, session: Session) -> Generator:
        stats = TenantRunStats(tenant=session.name)
        for ref, window in self.plan(session.name):
            try:
                objs = yield from session.fetch_chunks(
                    ref.logical, ref.tag, window
                )
                stats.record_objs(objs)
            except AdmissionRejected:
                stats.rejected += 1
            except FaultError:
                stats.failed += 1
        return stats

    def _open_loop(self, session: Session) -> Generator:
        sim = session._front.sim
        rng = self._rng(session.name + "/arrivals")
        stats = TenantRunStats(tenant=session.name)
        outstanding = []
        for ref, window in self.plan(session.name):
            yield sim.timeout(rng.expovariate(self.config.arrival_rate_hz))
            try:
                outstanding.append(
                    session.submit(
                        "fetch_chunks",
                        logical=ref.logical, tag=ref.tag, chunks=window,
                    )
                )
            except AdmissionRejected:
                stats.rejected += 1
        for request in outstanding:
            try:
                objs = yield request.done
                stats.record_objs(objs)
            except FaultError:
                stats.failed += 1
        return stats

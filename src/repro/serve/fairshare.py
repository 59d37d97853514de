"""Fair-share partitioning of the block cache across tenants.

:class:`TenantBlockCache` extends the tiered
:class:`~repro.fs.cache.BlockCache` with per-tenant L1 byte accounting:

* each tenant may hold a **reserved quota** of L1 bytes; the remainder of
  L1 is a **shared pool** that any tenant (and cross-tenant community
  blocks) may use;
* the pool is **reclaimable**: nothing is wasted while the cache is
  uncontended -- a lone tenant can fill all of L1 -- but when eviction
  pressure arrives, victims are chosen first among blocks whose holder is
  *over its allocation* (a tenant beyond its reservation, a tenant with
  no reservation, or the shared pool beyond its capacity), in LRU order.
  A tenant's within-quota working set therefore survives another
  tenant's scan;
* **charge follows use**: a block that a second tenant hits (or
  re-admits) is re-charged to the shared pool (owner ``None``), so a
  block one tenant faulted in is not billed to it forever once others
  read it too.

The owner map is the only per-tenant state.  Every figure billed -- L1
bytes per holder, resident prefetched-but-unused bytes per holder -- is a
scan of the resident blocks, so it equals the sum over them by
construction.  The scans are cold: the prefetch budget check, a victim
pick on an L1 eviction, and a gauge export.

Tenant attribution is ambient: by default the cache bills the ``context``
of the DES process that is running (:func:`span_tenant_source`), which
the scheduler sets to the tenant when it starts executing a request.
Because a spawned process inherits its parent's context, background
prefetches are attributed to the tenant whose demand window triggered
them.  Outside any request (direct ADA use, warm-up reads, tier-1 tests)
the context is ``None`` and the cache behaves exactly like its parent
class.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

from repro.fs.cache import BlockCache, BlockKey, CachedBlock
from repro.obs.metrics import MetricsRegistry

__all__ = ["TenantBlockCache", "span_tenant_source"]


def span_tenant_source(sim) -> Callable[[], Optional[str]]:
    """Ambient tenant resolver: the running process's ``context`` (the
    name is from when the tenant rode the trace-span chain)."""

    def current() -> Optional[str]:
        proc = sim.active_process
        return None if proc is None else proc.context

    return current


class TenantBlockCache(BlockCache):
    """Two-tier block cache with per-tenant L1 quotas over a shared pool."""

    def __init__(
        self,
        sim,
        tenant_source: Optional[Callable[[], Optional[str]]] = None,
        **kwargs,
    ):
        super().__init__(sim, **kwargs)
        self._owner: Dict[BlockKey, Optional[str]] = {}
        self._quotas: Dict[str, float] = {}
        # Looked up per construction, not bound as a default argument, so
        # a tracer that swaps the factory times the closure it returns.
        self.tenant_source = tenant_source or span_tenant_source(sim)

    # -- configuration ------------------------------------------------------

    def set_quota(self, tenant: str, nbytes: float) -> None:
        """Reserve ``nbytes`` of L1 for ``tenant`` (0 removes protection)."""
        self._quotas[str(tenant)] = max(0.0, float(nbytes))

    def shared_capacity_bytes(self) -> float:
        """L1 bytes not reserved by any tenant (the reclaimable pool)."""
        return max(0.0, self.l1_capacity_bytes - sum(self._quotas.values()))

    # -- metrics ------------------------------------------------------------

    def bind_metrics(
        self,
        metrics: MetricsRegistry,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        super().bind_metrics(metrics, labels=labels)
        extra = self.metric_labels
        for name, field in (
            ("block_cache_cross_tenant_hits_total", "cross_tenant_hits"),
            ("block_cache_quota_evictions_total", "quota_evictions"),
        ):
            self._metric_fields[field] = metrics.counter(name, **extra)
        metrics.gauge(
            "block_cache_shared_pool_bytes",
            fn=lambda: self.charged_bytes(None),
            **extra,
        )

    # -- accounting queries --------------------------------------------------

    def owner(self, key: BlockKey) -> Optional[str]:
        """Who the block is charged to (``None`` = shared pool / unknown)."""
        return self._owner.get(key)

    def charged_bytes(self, tenant: Optional[str]) -> float:
        """L1 bytes currently billed to ``tenant`` (``None`` = shared)."""
        return float(sum(
            block.nbytes for key, block in self._l1.items()
            if self._owner.get(key) == tenant
        ))

    def prefetched_bytes(self, tenant: Optional[str]) -> float:
        """Resident speculative (prefetched, unused) bytes billed to
        ``tenant`` -- what the prefetcher's per-tenant budget caps."""
        return float(sum(
            block.nbytes
            for tier in (self._l1, self._l2)
            for key, block in tier.items()
            if block.prefetched and self._owner.get(key) == tenant
        ))

    # -- data path overrides -------------------------------------------------

    def _current_tenant(self) -> Optional[str]:
        tenant = self.tenant_source()
        return None if tenant is None else str(tenant)

    def admit(
        self,
        key: BlockKey,
        nbytes: int,
        data: Optional[bytes] = None,
        prefetched: bool = False,
    ) -> None:
        tenant = self._current_tenant()
        if key not in self:
            self._owner[key] = tenant
        elif self._owner.get(key) != tenant:
            self._owner[key] = None  # re-admitted by another tenant: shared
        super().admit(key, nbytes, data=data, prefetched=prefetched)
        if key not in self:
            # Bypassed (larger than L1): never leave a dangling owner.
            self._owner.pop(key, None)

    def lookup(self, keys: Sequence[BlockKey]):
        blocks = yield from super().lookup(keys)
        tenant = self._current_tenant()
        if tenant is not None:
            for key, block in zip(keys, blocks):
                owner = self._owner.get(key)
                if block is not None and owner is not None and owner != tenant:
                    self._metric_fields["cross_tenant_hits"].inc()
                    self._owner[key] = None
        return blocks

    # -- hook implementations ------------------------------------------------

    def _on_removed(self, key: BlockKey, block: CachedBlock) -> None:
        self._owner.pop(key, None)

    def _over_allocation(
        self, owner: Optional[str], charged: Dict[Optional[str], float]
    ) -> bool:
        """Is this holder using more L1 than it is entitled to keep?"""
        if owner is None:
            return charged[owner] > self.shared_capacity_bytes()
        quota = self._quotas.get(owner)
        if quota is None:
            return True  # no reservation: always reclaimable
        return charged[owner] > quota

    def _pick_l1_victim(self) -> BlockKey:
        charged: Dict[Optional[str], float] = {}
        for key, block in self._l1.items():
            owner = self._owner.get(key)
            charged[owner] = charged.get(owner, 0.0) + block.nbytes
        for key in self._l1:
            if self._over_allocation(self._owner.get(key), charged):
                self._metric_fields["quota_evictions"].inc()
                return key
        return next(iter(self._l1))

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
* **charge follows use**: a block that a second tenant hits is re-charged
  to the shared pool (owner ``None``).  This is the fix for the
  accounting leak the multi-tenant suite exposed: blocks billed forever
  to whichever tenant faulted them in first -- a whole-subset read by one
  tenant, or an in-flight dedup join where the joining tenant consumed a
  block only the issuing tenant was charged for.

Tenant attribution is ambient: :func:`span_tenant_source` reads the
``context`` of the DES process that is running, which the scheduler sets
to the tenant when it starts executing a request.  Because a spawned
process inherits its parent's context, background prefetches are
attributed to the tenant whose demand window triggered them.  Outside any
request (direct ADA use, warm-up reads, tier-1 tests) the source returns
``None`` and the cache behaves exactly like its parent class.
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
        # Accounting state must exist before ``super().__init__`` runs:
        # it calls ``bind_metrics``, which our override extends.
        self._owner: Dict[BlockKey, Optional[str]] = {}
        self._l1_charged: Dict[Optional[str], float] = {}
        # Resident prefetched-but-unused bytes per owner, both tiers.
        self._speculative: Dict[Optional[str], int] = {}
        self._quotas: Dict[str, float] = {}
        self.tenant_source = tenant_source
        super().__init__(sim, **kwargs)

    # -- configuration ------------------------------------------------------

    def set_quota(self, tenant: str, nbytes: float) -> None:
        """Reserve ``nbytes`` of L1 for ``tenant`` (0 removes protection)."""
        self._quotas[str(tenant)] = max(0.0, float(nbytes))

    def quota_bytes(self, tenant: str) -> float:
        return self._quotas.get(str(tenant), 0.0)

    def shared_capacity_bytes(self) -> float:
        """L1 bytes not reserved by any tenant (the reclaimable pool)."""
        return max(0.0, self.l1_capacity_bytes - sum(self._quotas.values()))

    # -- metrics ------------------------------------------------------------

    def bind_metrics(
        self,
        metrics: MetricsRegistry,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        previous = getattr(self, "_metric_fields", None)
        super().bind_metrics(metrics, labels=labels)
        extra = self.metric_labels
        for name, field in (
            ("block_cache_cross_tenant_hits_total", "cross_tenant_hits"),
            ("block_cache_quota_evictions_total", "quota_evictions"),
        ):
            self._metric_fields[field] = metrics.counter(name, **extra)
            if previous is not None and field in previous:
                if previous[field].value:
                    self._metric_fields[field].set(previous[field].value)
        metrics.gauge(
            "block_cache_shared_pool_bytes",
            fn=lambda: self._l1_charged.get(None, 0.0),
            **extra,
        )

    # -- accounting queries --------------------------------------------------

    def owner(self, key: BlockKey) -> Optional[str]:
        """Who the block is charged to (``None`` = shared pool / unknown)."""
        return self._owner.get(key)

    def charged_bytes(self, tenant: Optional[str]) -> float:
        """L1 bytes currently billed to ``tenant`` (``None`` = shared)."""
        return self._l1_charged.get(tenant, 0.0)

    def prefetched_bytes(self, tenant: Optional[str]) -> float:
        """Resident speculative (prefetched, unused) bytes billed to
        ``tenant`` -- what the prefetcher's per-tenant budget caps."""
        return float(self._speculative.get(tenant, 0))

    # -- data path overrides -------------------------------------------------

    def _current_tenant(self) -> Optional[str]:
        source = self.tenant_source
        if source is None:
            return None
        tenant = source()
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
            # Re-admitted by a different tenant: community block.
            self._transfer(key, None)
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
                    self._transfer(key, None)
        return blocks

    # -- hook implementations ------------------------------------------------

    def _on_l1_insert(self, key: BlockKey, block: CachedBlock) -> None:
        owner = self._owner.get(key)
        self._l1_charged[owner] = (
            self._l1_charged.get(owner, 0.0) + block.nbytes
        )
        if block.prefetched:
            # Only a fresh speculative admission arrives flagged: a
            # promotion's flag was cleared by the hit that caused it.
            self._speculate(owner, block.nbytes)

    def _on_l1_remove(self, key: BlockKey, block: CachedBlock) -> None:
        owner = self._owner.get(key)
        remaining = self._l1_charged.get(owner, 0.0) - block.nbytes
        if remaining > 0.0:
            self._l1_charged[owner] = remaining
        else:
            self._l1_charged.pop(owner, None)

    def _on_removed(self, key: BlockKey, block: CachedBlock) -> None:
        owner = self._owner.pop(key, None)
        if block.prefetched:
            self._speculate(owner, -block.nbytes)

    def _on_replaced(self, key: BlockKey, block: CachedBlock) -> None:
        if block.prefetched:
            self._speculate(self._owner.get(key), -block.nbytes)

    def _count_prefetch_use(self, key: BlockKey, block: CachedBlock) -> None:
        self._speculate(self._owner.get(key), -block.nbytes)
        super()._count_prefetch_use(key, block)

    def _speculate(self, owner: Optional[str], nbytes: int) -> None:
        """Move ``owner``'s resident speculative bytes by ``nbytes``."""
        left = self._speculative.get(owner, 0) + nbytes
        if left:
            self._speculative[owner] = left
        else:
            self._speculative.pop(owner, None)

    def _transfer(self, key: BlockKey, new_owner: Optional[str]) -> None:
        old_owner = self._owner.get(key)
        if old_owner == new_owner:
            return
        block = self._l1.get(key)
        if block is not None:
            remaining = self._l1_charged.get(old_owner, 0.0) - block.nbytes
            if remaining > 0.0:
                self._l1_charged[old_owner] = remaining
            else:
                self._l1_charged.pop(old_owner, None)
            self._l1_charged[new_owner] = (
                self._l1_charged.get(new_owner, 0.0) + block.nbytes
            )
        else:
            block = self._l2.get(key)
        if block is not None and block.prefetched:
            self._speculate(old_owner, -block.nbytes)
            self._speculate(new_owner, block.nbytes)
        self._owner[key] = new_owner

    def _over_allocation(self, owner: Optional[str]) -> bool:
        """Is this holder using more L1 than it is entitled to keep?"""
        charged = self._l1_charged.get(owner, 0.0)
        if owner is None:
            return charged > self.shared_capacity_bytes()
        quota = self._quotas.get(owner)
        if quota is None:
            return True  # no reservation: always reclaimable
        return charged > quota

    def _pick_l1_victim(self) -> BlockKey:
        fallback = None
        for key in self._l1:
            if fallback is None:
                fallback = key
            if self._over_allocation(self._owner.get(key)):
                self._metric_fields["quota_evictions"].inc()
                return key
        return fallback

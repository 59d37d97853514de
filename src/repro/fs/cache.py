"""Caching layers: the page-cache FS wrapper and the tiered block cache.

Two distinct caches live here:

* :class:`CachedFS` -- the paper's *counter-argument* device.  The paper's
  sharpest point is that caching and faster media don't help the
  traditional path: even with the compressed file fully resident, the C
  path still pays full decompression on every load ("a time-consuming
  repeated effort", §1).  ``CachedFS`` makes that argument quantitative --
  it serves repeat reads at memory bandwidth, and the page-cache ablation
  bench shows the traditional turnaround barely moves while ADA's lead
  stands.  LRU over whole objects (VMD reads whole files), capacity in
  bytes.

* :class:`BlockCache` -- ADA's *own* read accelerator.  A two-level
  (memory over SSD) cache keyed by PLFS ``(logical, tag, chunk)`` blocks
  -- one entry per stored chunk, never an assembled subset -- shared by
  ``ADA.fetch`` / ``fetch_all`` / ``fetch_merged`` and warmed by the
  adaptive prefetcher.  L1 serves at memory bandwidth; blocks evicted
  from L1 demote to an SSD-class L2 before leaving the cache entirely.
  Hit/miss/eviction counters are the ``block_cache_*`` registry
  families; the :meth:`BlockCache.pressure` watermark is what the
  prefetcher consults before issuing speculative reads.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Generator, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fs.base import FileSystem, StoredObject
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, span
from repro.units import MiB, gbps

__all__ = ["CachedFS", "BlockCache", "BlockKey", "CachedBlock"]


class CachedFS(FileSystem):
    """LRU page cache in front of another file system.

    Coherence contract: a ``write`` to a cached path *invalidates* the
    cached entry synchronously, before any backend time is charged, and
    re-admits the object only once the backend write has completed.  A
    read that overlaps the write therefore either misses (and queues on
    the backend behind the write) or serves the consistent pre-write
    snapshot -- never a torn object whose size and bytes disagree.
    """

    def __init__(
        self,
        inner: FileSystem,
        capacity_bytes: float,
        memory_bandwidth: float = gbps(6.0),
        name: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if capacity_bytes <= 0 or memory_bandwidth <= 0:
            raise ConfigurationError("cache capacity/bandwidth must be positive")
        super().__init__(inner.sim, name or f"cached:{inner.name}")
        self.inner = inner
        self.store = inner.store  # shared namespace: the cache adds no state
        self.capacity_bytes = float(capacity_bytes)
        self.memory_bandwidth = float(memory_bandwidth)
        self._lru: "OrderedDict[str, int]" = OrderedDict()
        # Counters live in the (injectable) metrics registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._metric_fields = {
            field: self.metrics.counter(f"page_cache_{field}_total", fs=self.name)
            for field in ("hits", "misses", "invalidations")
        }

    @property
    def cached_bytes(self) -> float:
        return float(sum(self._lru.values()))

    def is_cached(self, path: str) -> bool:
        return self.store.normalize(path) in self._lru

    def invalidate(self, path: Optional[str] = None) -> None:
        """Drop one path (or everything) from the cache."""
        if path is None:
            self._metric_fields["invalidations"].inc(len(self._lru))
            self._lru.clear()
        elif self._lru.pop(self.store.normalize(path), None) is not None:
            self._metric_fields["invalidations"].inc()

    # -- FS interface -----------------------------------------------------

    def write(
        self,
        path: str,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
        request_size: Optional[int] = None,
        label: str = "write",
    ) -> Generator:
        # Invalidate *before* the backend write is charged: a concurrent
        # reader must not hit a cache entry the write is about to replace.
        self.invalidate(path)
        # Write-through; the written object becomes cache-resident.
        obj = yield from self.inner.write(
            path, data=data, nbytes=nbytes, request_size=request_size, label=label
        )
        self._admit(path, obj.nbytes)
        self.bytes_written += obj.nbytes
        return obj

    def append(self, path: str, data: bytes, label: str = "write") -> Generator:
        # Same coherence contract as ``write``: invalidate first, append
        # through, re-admit the grown object once the backend has it.
        self.invalidate(path)
        obj = yield from self.inner.append(path, data, label=label)
        self._admit(path, self.store.nbytes(path))
        self.bytes_written += obj.nbytes
        return obj

    # The wrapped file system owns the capacity ledger and the devices.

    def device_backlog(self) -> Tuple[int, int]:
        return self.inner.device_backlog()

    def _reserve(self, start: int, nbytes: int) -> None:
        self.inner._reserve(start, nbytes)

    def _release(self, start: int, nbytes: int) -> None:
        self.inner._release(start, nbytes)

    def read(
        self,
        path: str,
        request_size: Optional[int] = None,
        label: str = "read",
    ) -> Generator:
        key = self.store.normalize(path)
        if key in self._lru:
            self._metric_fields["hits"].inc()
            self._lru.move_to_end(key)
            # Snapshot size *and* bytes before sleeping: the hit serves the
            # cached copy as of the request, not whatever a concurrent
            # writer leaves behind mid-transfer.
            size = self.store.nbytes(key)
            data = None if self.store.is_virtual(key) else self.store.data(key)
            yield self.sim.timeout(size / self.memory_bandwidth)
            self.bytes_read += size
            return StoredObject(path=path, nbytes=size, data=data)
        self._metric_fields["misses"].inc()
        obj = yield from self.inner.read(
            path, request_size=request_size, label=label
        )
        self._admit(path, obj.nbytes)
        self.bytes_read += obj.nbytes
        return obj

    def _admit(self, path: str, nbytes: int) -> None:
        key = self.store.normalize(path)
        if nbytes > self.capacity_bytes:
            # Larger than the whole cache: bypass -- but never leave a
            # stale smaller entry behind for the same path.
            self._lru.pop(key, None)
            return
        self._lru[key] = nbytes
        self._lru.move_to_end(key)
        while self.cached_bytes > self.capacity_bytes:
            self._lru.popitem(last=False)


# ---------------------------------------------------------------------------
# Tiered block cache (the pipelined read path's L1/L2)
# ---------------------------------------------------------------------------

#: Cache key: one PLFS subset chunk.  Chunks are immutable once written,
#: so an append adds keys and never leaves a resident block stale.
BlockKey = Tuple[str, str, int]

#: Service-time calibration of the two tiers: an L1 hit streams from
#: memory with no fixed latency; an L2 (SSD-class) hit pays a fixed
#: latency plus its transfer.
L1_BANDWIDTH = gbps(6.0)
L2_BANDWIDTH = gbps(2.0)
L2_LATENCY_S = 80e-6


@dataclass
class CachedBlock:
    """One resident block: size always, bytes when materialized."""

    nbytes: int
    data: Optional[bytes] = None
    prefetched: bool = False  # admitted speculatively, not yet used


class BlockCache:
    """Two-level LRU block cache over ``(logical, tag, chunk)`` keys.

    * **L1 (memory)** serves hits at :data:`L1_BANDWIDTH` with no fixed
      latency -- the block is already in the reader's address space.
    * **L2 (SSD-class)** holds blocks demoted from L1; a hit pays
      :data:`L2_LATENCY_S` plus ``nbytes / L2_BANDWIDTH`` and promotes
      the block back to L1.

    ``lookup`` is a DES process (it charges simulated time); ``admit`` /
    ``invalidate`` are synchronous bookkeeping, matching the repo's
    convention that metadata mutation is free while data movement pays.
    """

    def __init__(
        self,
        sim,
        l1_capacity_bytes: float = 64 * MiB,
        l2_capacity_bytes: float = 0.0,
    ):
        if l1_capacity_bytes <= 0:
            raise ConfigurationError("block cache L1 capacity must be positive")
        if l2_capacity_bytes < 0:
            raise ConfigurationError("block cache L2 capacity must be >= 0")
        self.sim = sim
        self.l1_capacity_bytes = float(l1_capacity_bytes)
        self.l2_capacity_bytes = float(l2_capacity_bytes)
        self._l1: "OrderedDict[BlockKey, CachedBlock]" = OrderedDict()
        self._l2: "OrderedDict[BlockKey, CachedBlock]" = OrderedDict()
        # Running byte totals of the two tiers (block sizes are ints), so
        # ``pressure()`` and the eviction loops cost O(1), not O(blocks).
        self._l1_nbytes = 0
        self._l2_nbytes = 0
        self.metric_labels: Dict[str, str] = {}
        # Hit/eviction accounting is registry-backed; occupancy surfaces as
        # derived gauges so exporters always see the live value.  A private
        # registry until a middleware rebinds the cache into its own.
        self.bind_metrics(MetricsRegistry())

    def bind_metrics(
        self,
        metrics: MetricsRegistry,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """(Re)home this cache's counters and gauges in ``metrics``.

        A cache is usually constructed standalone and handed to ``ADA``,
        which rebinds it into the middleware's shared registry before the
        cache has counted anything, so no count is carried over.
        ``labels`` distinguish this cache's series when several caches
        share one registry -- a sharded deployment binds each shard's
        cache with ``{"shard": name}``.
        Without them, same-named counters from two caches would be the
        *same* registry object (silently merged series) and the derived
        occupancy gauges would track only the last cache bound.
        """
        if labels:
            self.metric_labels.update({k: str(v) for k, v in labels.items()})
        extra = self.metric_labels
        self.metrics = metrics
        self._metric_fields = {
            f"hits_{tier}": metrics.counter(
                "block_cache_hits_total", tier=tier, **extra
            )
            for tier in ("l1", "l2")
        }
        for field in (
            "misses", "demotions", "evictions", "invalidations",
            "prefetch_hits", "prefetch_wasted",
        ):
            self._metric_fields[field] = metrics.counter(
                f"block_cache_{field}_total", **extra
            )
        self.metrics.gauge(
            "block_cache_bytes", fn=lambda: self.l1_bytes, tier="l1", **extra
        )
        self.metrics.gauge(
            "block_cache_bytes", fn=lambda: self.l2_bytes, tier="l2", **extra
        )
        self.metrics.gauge("block_cache_pressure", fn=self.pressure, **extra)

    # -- capacity accounting ----------------------------------------------

    @property
    def l1_bytes(self) -> float:
        return float(self._l1_nbytes)

    @property
    def l2_bytes(self) -> float:
        return float(self._l2_nbytes)

    @property
    def cached_bytes(self) -> float:
        return self.l1_bytes + self.l2_bytes

    def pressure(self) -> float:
        """L1 occupancy fraction -- the prefetcher's back-off watermark."""
        return self._l1_nbytes / self.l1_capacity_bytes

    def __len__(self) -> int:
        return len(self._l1) + len(self._l2)

    def __contains__(self, key: BlockKey) -> bool:
        return key in self._l1 or key in self._l2

    def peek(self, key: BlockKey) -> bool:
        """Residency check with no simulated cost and no LRU effect."""
        return key in self

    def peek_all(self, logical: str, tag: str, chunks: Sequence[int]) -> bool:
        """``peek`` over a window of one subset: is every chunk resident?"""
        l1, l2 = self._l1, self._l2
        for chunk in chunks:
            key = (logical, tag, chunk)
            if key not in l1 and key not in l2:
                return False
        return True

    # -- data path ---------------------------------------------------------

    def lookup(self, keys: Sequence[BlockKey]) -> Generator:
        """Process: fetch a window of blocks with one probe and one wait.

        Probes every key once, in order (tier counter, LRU move, prefetch
        use, L2 take), waits once until exactly where a chain of per-hit
        waits in key order would end, then promotes the L2 hits in key
        order.  Returns a :class:`CachedBlock` or ``None`` per key.  Hits
        are decided at the probe: a block another process evicts during
        the wait is still served to this window.
        """
        counters, l1 = self._metric_fields, self._l1
        blocks, promote = [], []
        end = self.sim.now
        l1_hits = 0  # counted once per window (an int: the same total)
        for key in keys:
            block = l1.get(key)
            if block is not None:
                l1_hits += 1
                l1.move_to_end(key)
                end += block.nbytes / L1_BANDWIDTH
            else:
                block = self._take_l2(key)
                if block is None:
                    counters["misses"].inc()
                    blocks.append(None)
                    continue
                counters["hits_l2"].inc()
                promote.append((key, block))
                end += L2_LATENCY_S + block.nbytes / L2_BANDWIDTH
            if block.prefetched:  # a speculative block's first demand read
                counters["prefetch_hits"].inc()
                block.prefetched = False
            blocks.append(block)
        if l1_hits:
            counters["hits_l1"].inc(l1_hits)
        if l1_hits or promote:
            with NULL_SPAN if self.sim.tracer is None else span(
                self.sim, "cache.lookup", logical=keys[0][0], tag=keys[0][1],
                chunks=len(keys), l2_hits=len(promote), cache_hit=True,
            ):
                yield self.sim.timeout_at(end)
        for key, block in promote:
            self._insert_l1(key, block)
        return blocks

    def admit(
        self,
        key: BlockKey,
        nbytes: int,
        data: Optional[bytes] = None,
        prefetched: bool = False,
    ) -> None:
        """Install (or refresh) a block in L1."""
        if nbytes > self.l1_capacity_bytes:
            return  # larger than the whole L1: bypass
        self._take_l2(key)
        self._insert_l1(
            key, CachedBlock(nbytes=int(nbytes), data=data, prefetched=prefetched)
        )

    def invalidate(
        self,
        logical: Optional[str] = None,
        tag: Optional[str] = None,
        chunk: Optional[int] = None,
    ) -> int:
        """Drop matching blocks; ``None`` fields are wildcards.

        ``invalidate()`` empties the cache; ``invalidate(logical)`` drops a
        dataset (what ``ADA.remove`` uses).  Returns the number dropped.
        """

        def matches(key: BlockKey) -> bool:
            return (
                (logical is None or key[0] == logical)
                and (tag is None or key[1] == tag)
                and (chunk is None or key[2] == chunk)
            )

        in_l1 = [k for k in self._l1 if matches(k)]
        in_l2 = [k for k in self._l2 if matches(k)]
        for key in in_l1:
            self._on_removed(key, self._take_l1(key))
        for key in in_l2:
            self._on_removed(key, self._take_l2(key))
        dropped = len(in_l1) + len(in_l2)
        self._metric_fields["invalidations"].inc(dropped)
        return dropped

    # -- internals ---------------------------------------------------------

    def _take_l1(self, key: BlockKey) -> CachedBlock:
        """Remove and return a resident L1 block."""
        block = self._l1.pop(key)
        self._l1_nbytes -= block.nbytes
        return block

    def _take_l2(self, key: BlockKey) -> Optional[CachedBlock]:
        """Remove and return an L2 block (``None`` when not resident)."""
        block = self._l2.pop(key, None)
        if block is not None:
            self._l2_nbytes -= block.nbytes
        return block

    def _insert_l1(self, key: BlockKey, block: CachedBlock) -> None:
        if key in self._l1:
            self._take_l1(key)
        self._l1[key] = block
        self._l1_nbytes += block.nbytes
        while self._l1_nbytes > self.l1_capacity_bytes and len(self._l1) > 1:
            victim_key = self._pick_l1_victim()
            self._demote(victim_key, self._take_l1(victim_key))
        # A single over-budget resident block demotes too.
        if self._l1_nbytes > self.l1_capacity_bytes:
            only_key = next(iter(self._l1))
            self._demote(only_key, self._take_l1(only_key))

    def _demote(self, key: BlockKey, block: CachedBlock) -> None:
        if block.nbytes > self.l2_capacity_bytes:
            self._drop(key, block)
            return
        self._metric_fields["demotions"].inc()
        self._l2[key] = block
        self._l2.move_to_end(key)
        self._l2_nbytes += block.nbytes
        while self._l2_nbytes > self.l2_capacity_bytes and self._l2:
            victim_key = next(iter(self._l2))  # plain LRU
            self._drop(victim_key, self._take_l2(victim_key))

    def _drop(self, key: BlockKey, block: CachedBlock) -> None:
        self._metric_fields["evictions"].inc()
        if block.prefetched:
            self._metric_fields["prefetch_wasted"].inc()
        self._on_removed(key, block)

    # -- subclass hooks (fair-share partitioning overrides these) ----------

    def _pick_l1_victim(self) -> BlockKey:
        """Key of the next L1 block to demote; default is plain LRU."""
        return next(iter(self._l1))

    def _on_removed(self, key: BlockKey, block: CachedBlock) -> None:
        """A block left the cache entirely (eviction or invalidation)."""

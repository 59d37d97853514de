"""The ADA middleware facade (paper §3.4).

``ADA`` sits between the application (VMD) and the underlying file systems.
On ingest it checks whether the file belongs to its target application --
"ADA checks if a file to be written is generated by a target application.
If so, the file will be pre-processed by ADA.  Otherwise, it will not be
trapped" -- then runs the data pre-processor *on a storage node's CPU* and
dispatches the tagged subsets.  On read it serves whole containers or
tag-selective subsets.

Both execution modes share this facade:

* :meth:`ingest` / :meth:`fetch` carry real bytes (materialized mode);
* :meth:`ingest_virtual` carries sizes only (paper-scale modeled mode) but
  exercises the same dispatcher/indexer/retriever code.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional

from repro.cluster.node import ComputeNode
from repro.core.dataplane import (
    DataPlane,
    IngestReceipt,
    merge_decoded_subsets,
)
from repro.core.determinator import IODeterminator
from repro.core.ingest import IngestPipelineConfig
from repro.core.labeler import LabelMap
from repro.core.prefetch import Prefetcher
from repro.core.preprocessor import DataPreProcessor
from repro.core.tags import PlacementPolicy, TagPolicy
from repro.errors import (
    ConfigurationError, ContainerError, LabelIndexError, TagNotFoundError,
)
from repro.faults.retry import RetryPolicy
from repro.fs.base import FileSystem, Payload
from repro.fs.cache import BlockCache
from repro.fs.plfs import PLFS
from repro.obs.metrics import MetricsRegistry
from repro.sim import AllOf, Simulator

# ``IngestReceipt`` and ``merge_decoded_subsets`` live with the shared data
# plane; they stay importable from here.
__all__ = ["ADA", "IngestReceipt", "merge_decoded_subsets"]


class ADA(DataPlane):
    """Application-conscious data acquirer middleware.

    The public read and ingest surface (``fetch``/``fetch_chunks``/
    ``fetch_merged``/``fetch_all``, ``ingest``/``ingest_append``/
    ``ingest_stream``), tier resolution and ``tags``/``has_lod``/
    ``lod_bound``/``remove`` come from
    :class:`~repro.core.dataplane.DataPlane`; this class builds the
    single-node stack and supplies the storage hooks over it, plus the
    single-node extras ``ingest_virtual`` and ``passthrough_write``.
    """

    # ``benchmarks/e2e/trace.py`` patches these per class through
    # ``cls.__dict__``, so each front names the shared entry points.
    fetch = DataPlane.fetch
    fetch_chunks = DataPlane.fetch_chunks
    fetch_merged = DataPlane.fetch_merged
    ingest = DataPlane.ingest
    ingest_append = DataPlane.ingest_append
    ingest_stream = DataPlane.ingest_stream

    def __init__(
        self,
        sim: Simulator,
        backends: Dict[str, FileSystem],
        policy: Optional[TagPolicy] = None,
        placement: Optional[PlacementPolicy] = None,
        storage_cpu: Optional[ComputeNode] = None,
        storage_cpus: Optional[List[ComputeNode]] = None,
        subset_format: str = "raw",
        retry_policy: Optional[RetryPolicy] = None,
        block_cache: Optional[BlockCache] = None,
        prefetch: bool = False,
        ingest_config: Optional[IngestPipelineConfig] = None,
        lod_precision: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        shard_id: Optional[str] = None,
    ):
        if not backends:
            raise ConfigurationError("ADA needs at least one backend FS")
        if prefetch and block_cache is None:
            raise ConfigurationError(
                "prefetch needs a block_cache to prefetch into"
            )
        # When several middlewares (shards) share one registry, an id
        # labels every series this instance creates -- without it,
        # same-named counters would be one merged object and fn-gauges
        # would silently track only the last shard bound.
        self.shard_id = shard_id
        super().__init__(
            sim, metrics,
            {"shard": str(shard_id)} if shard_id is not None else {},
        )
        self.policy = policy or TagPolicy.protein_vs_misc()
        self.placement = placement or PlacementPolicy.paper_default(
            active_backend=self._pick(backends, "ssd"),
            inactive_backend=self._pick(backends, "hdd"),
        )
        # A container's index log and label file are its hottest objects.
        self.plfs = PLFS(sim, backends, metadata_backend=self.placement.active_backend)
        self.block_cache = block_cache
        # Only a single-node front with a block cache skips lookups (see
        # :meth:`_resident`), so only it registers their count.
        self._lookups_avoided = None
        if block_cache is not None and shard_id is None:
            self._lookups_avoided = self.metrics.counter(
                "indexer_lookups_avoided_total", **self.metric_labels
            )
        if block_cache is not None:
            block_cache.bind_metrics(self.metrics, labels=self.metric_labels)
        self.determinator = IODeterminator(
            sim,
            self.plfs,
            self.placement,
            retry_policy=retry_policy,
            block_cache=block_cache,
            metrics=self.metrics,
            metric_labels=self.metric_labels,
        )
        self.prefetcher: Optional[Prefetcher] = None
        if prefetch:
            self.prefetcher = Prefetcher(
                sim,
                self.determinator.retriever,
                degradation_source=self._degradation_level,
                metrics=self.metrics,
                metric_labels=self.metric_labels,
            )
        self.preprocessor = DataPreProcessor(
            self.policy,
            subset_format=subset_format,
            lod_precision=lod_precision,
        )
        self._lod_metric_fields: Optional[Dict[str, object]] = None
        # One or many storage-side CPUs: with many, pre-processing work
        # splits across them ("ADA exploits the computing resources of
        # storage nodes", §2.2) -- each node handles its local share.
        self.storage_cpus: List[ComputeNode] = list(storage_cpus or [])
        if storage_cpu is not None:
            self.storage_cpus.insert(0, storage_cpu)
        self.ingest_config = ingest_config

    @property
    def lod_precision(self) -> Optional[float]:
        """Quantization grid of the coarse LOD tier for *future* ingests
        (None = tier disabled; reads of datasets without an LOD layer
        fall back to full-precision bytes)."""
        return self.preprocessor.lod_precision

    @lod_precision.setter
    def lod_precision(self, value: Optional[float]) -> None:
        self.preprocessor.lod_precision = value

    @property
    def storage_cpu(self) -> Optional[ComputeNode]:
        """The first storage-side CPU (back-compat accessor)."""
        return self.storage_cpus[0] if self.storage_cpus else None

    @staticmethod
    def _pick(backends: Dict[str, FileSystem], tier: str) -> str:
        """The one backend, or the one named after ``tier``."""
        if len(backends) == 1:
            return next(iter(backends))
        if tier not in backends:
            raise ConfigurationError(f"no {tier!r} backend: pass placement=")
        return tier

    # -- ingest (write) path -----------------------------------------------------

    def ingest_virtual(
        self,
        logical: str,
        label_map: LabelMap,
        subset_sizes: Dict[str, int],
        compressed_nbytes: int,
        charge_cpu: bool = True,
    ) -> Generator:
        """Process: dispatch a size-only dataset (paper-scale mode)."""
        raw_nbytes = sum(subset_sizes.values())
        if charge_cpu:
            yield from self._charge_preprocess(raw_nbytes)
        yield from self._store_subsets(logical, subset_sizes)
        yield from self._store_label(logical, label_map)
        return self._receipt(
            logical, label_map, dict(subset_sizes), raw_nbytes, compressed_nbytes
        )

    def passthrough_write(
        self, path: str, data: Optional[bytes] = None, nbytes: Optional[int] = None
    ) -> Generator:
        """Process: non-target files skip pre-processing entirely."""
        backend = self.plfs.backends[self.placement.inactive_backend]
        obj = yield from backend.write(path, data=data, nbytes=nbytes)
        return obj

    # -- metadata --------------------------------------------------------------------

    def label_map(self, logical: str) -> LabelMap:
        """The stored label map for a dataset (loads the label file)."""
        if logical in self._label_maps:
            return self._label_maps[logical]
        path = self._label_path(logical)
        homes = list(self.plfs.metadata_homes(path).values())
        if not homes:
            raise LabelIndexError(f"no label file for {logical!r}")
        label_map = LabelMap.from_bytes(homes[0].data(path))
        self._label_maps[logical] = label_map
        return label_map

    def members(self) -> List[ADA]:
        return [self]

    def chunks_nbytes(self, logical: str, tag: str, chunks) -> int:
        return self.plfs.chunks_nbytes(logical, tag, chunks)

    def subset_nbytes(self, logical: str, tag: str) -> int:
        return self.plfs.subset_nbytes(logical, tag)

    def _delete_stored(self, logical: str) -> int:
        """Every subset chunk, the container index, and the label file."""
        freed = self.plfs.delete_container(logical)
        label_path = self._label_path(logical)
        for fs in self.plfs.metadata_homes(label_path).values():
            freed += fs.delete(label_path)
        if self.block_cache is not None:
            self.block_cache.invalidate(logical=logical)
        return freed

    def stats(self) -> Dict[str, object]:
        """The streaming ingest's overlap ratio and buffered-byte peak,
        kept for ``benchmarks/e2e`` (``workloads.py`` reads them) until
        ROADMAP item 10(d) re-points it at the registry.  Counts are
        registry series; other live state is an attribute (docs/api.md).
        """
        pipeline = self._ingest_pipeline
        return {
            "ingest": {} if pipeline is None else {
                "overlap_ratio": pipeline.overlap_ratio,
                "buffered_bytes_peak": self.metrics.value(
                    "ingest_buffered_bytes_peak", **self.metric_labels
                ),
            },
        }

    # -- precision tiers ---------------------------------------------------------------

    def _lod_metrics(self) -> Dict[str, object]:
        """The lazily-registered ``lod_*`` metric families."""
        if self._lod_metric_fields is None:
            extra = self.metric_labels
            self._lod_metric_fields = {
                "served": self.metrics.counter(
                    "lod_served_total", **extra
                ),  # reads answered from the coarse tier
                "chunks": self.metrics.counter(
                    "lod_chunks_total", **extra
                ),
                "served_bytes": self.metrics.counter(
                    "lod_served_bytes_total", **extra
                ),
                "fallback": self.metrics.counter(
                    "lod_fallback_total", **extra
                ),  # lod requested, no layer stored -> full bytes
            }
        return self._lod_metric_fields

    #: The data plane's tier events are this node's ``lod_*`` families.
    _tier_counters = _lod_metrics

    # -- data-plane storage hooks ------------------------------------------------------

    def _stored_tags(self, logical: str) -> List[str]:
        return self.plfs.tags(logical)

    def _stored_chunks(self, logical: str, tag: str) -> List[bytes]:
        """A subset's stored chunk bytes, as held (no simulated read)."""
        return [
            self.plfs.backends[r.backend].data(r.path)
            for r in self.plfs.subset_records(logical, tag)
        ]

    def _store_subsets(
        self,
        logical: str,
        subsets: Dict[str, Payload],
        config: Optional[IngestPipelineConfig] = None,
    ) -> Generator:
        return self.determinator.store(logical, subsets, config)

    def _fetch(self, logical: str, tag: str) -> Generator:
        if self._resident(logical, tag):
            return (yield from self.determinator.retriever.retrieve(logical, tag))
        return (yield from self.determinator.fetch(logical, tag))

    def _fetch_chunks(
        self, logical: str, tag: str, chunks: List[int]
    ) -> Generator:
        if not self._resident(logical, tag, chunks):
            yield from self.determinator.indexer.lookup(logical, tag, chunks)
        objs = yield from self.determinator.retriever.retrieve_chunks(
            logical, tag, chunks=chunks
        )
        if self.prefetcher is not None:
            self.prefetcher.observe(logical, tag, chunks)
        return objs

    def _resident(
        self, logical: str, tag: str, chunks: Optional[List[int]] = None
    ) -> bool:
        """Is every requested chunk (``None``: the whole subset) in the
        block cache?  Then the read skips the indexer, whose paths only a
        storage read uses, and counts ``indexer_lookups_avoided_total``.

        ``peek_all`` is free and moves no LRU entry, and the hooks call this
        in the instant the retriever probes, so a resident read never
        reaches storage.  An empty window, an unknown subset (the lookup
        raises, after its latency) and a partial hit all pay the lookup.

        A shard node (``shard_id`` set) pays it too.  With the skip on
        nodes, ``BENCH_cluster`` smoke ``imbalance_widest`` at seed 3 went
        0.2156 -> 0.4333 (floor 0.25; its median over seeds 1-12, 0.334 ->
        0.401), and at full size, seed 7, 8 nodes 0.2856 -> 0.2410 s but
        1 node 1.628 -> 1.865 s and 4 nodes 0.414 -> 0.421 s.  Likely
        cause, not isolated: sticky routing yields on requests in flight,
        and a free hit is never in flight.
        """
        if self._lookups_avoided is None:
            return False
        if chunks is None:
            try:
                chunks = [r.chunk for r in self.plfs.subset_records(logical, tag)]
            except (ContainerError, TagNotFoundError):
                return False
        if not chunks or not self.block_cache.peek_all(logical, tag, chunks):
            return False
        self._lookups_avoided.inc()
        return True

    def _read_subset(self, logical: str, tag: str) -> Generator:
        return self.determinator.retriever.retrieve(logical, tag)

    def _read_chunks(self, logical: str, tag: str) -> Generator:
        return self.determinator.retriever.retrieve_chunks(logical, tag)

    def _lookup_all(self, logical: str) -> Generator:
        # Always charged: the per-tag reads run as their own processes, so
        # residency can change between a peek here and their probes.
        return self.determinator.indexer.lookup_all(logical)

    def _downgradable(self, logical: str, tag: str) -> bool:
        """A subset is expendable when no part of it lives on the active
        tier (checked against where chunks actually landed, spills
        included)."""
        backends = self.plfs.subset_backends(logical, tag)
        return self.placement.active_backend not in backends

    def _landed_on(self, logical: str, tag: str) -> str:
        return ",".join(self.plfs.subset_backends(logical, tag))

    # -- internals --------------------------------------------------------------------

    def _degradation_level(self) -> float:
        """Monotone counter of fault-layer trouble; the prefetcher backs
        off whenever it grows between two demand windows."""
        s = self.determinator.retrier.stats
        return float(
            s.transient_faults.value + s.exhausted.value
            + len(self.degraded)
        )

    def _charge_preprocess(self, raw_nbytes: float) -> Generator:
        """Process: inflate + categorize on the storage side.

        With N storage CPUs the raw volume splits evenly -- each node
        pre-processes the stripes it already holds locally -- so ingest
        time scales down with the storage-node count (see the
        ingest-scaling ablation).
        """

        def node_work(cpu: ComputeNode, share: float) -> Generator:
            yield from cpu.decompress(share)
            yield from cpu.scan(share, label="categorize")

        return self._on_storage_cpus("preprocess", raw_nbytes, node_work)

    def _charge_analysis(self, raw_nbytes: float) -> Generator:
        """Process: the fused in-situ analysis pass over one window.

        One streaming scan of the window's decoded coordinates, charged
        on the storage nodes' *analysis* slots
        (:meth:`ComputeNode.analyze`) rather than the data-path pipeline,
        so window k's analysis overlaps window k+1's decompress/categorize
        and window k-1's dispatch.  Splits across storage CPUs exactly
        like :meth:`_charge_preprocess`.
        """
        return self._on_storage_cpus(
            "analysis", raw_nbytes, lambda cpu, share: cpu.analyze(share)
        )

    def _on_storage_cpus(self, stage: str, raw_nbytes: float, work) -> Generator:
        """Process: ``work(cpu, share)`` on every storage CPU in parallel,
        each taking an even share of the raw volume (free without CPUs)."""
        cpus = self.storage_cpus
        if not cpus:
            return
        share = raw_nbytes / len(cpus)
        procs = [
            self.sim.process(work(cpu, share), name=f"{stage}:{cpu.name}")
            for cpu in cpus
        ]
        yield AllOf(self.sim, procs)

    @staticmethod
    def _label_path(logical: str) -> str:
        return f"{logical}.label"

    def _store_label(self, logical: str, label_map: LabelMap) -> Generator:
        """Process: write the label file, spilling like an index append."""
        self._label_maps[logical] = label_map
        path, data = self._label_path(logical), label_map.to_bytes()
        stale = self.plfs.metadata_homes(path)
        landed = yield from self.plfs.write_metadata(
            lambda name: self.plfs.backends[name].write(path, data=data, label="label"),
            lambda op: self.determinator.retrier.call(op, key=f"label:{logical}"),
            self.placement.inactive_backend,
        )
        stale.pop(landed, None)  # one copy: a re-ingest may change tiers
        for fs in stale.values():
            fs.delete(path)

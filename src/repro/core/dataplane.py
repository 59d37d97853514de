"""The middleware data plane: one orchestration core under both fronts.

:class:`~repro.core.middleware.ADA` (one node) and
:class:`~repro.cluster.shard.ShardedADA` (N nodes behind a router) are
the *same* middleware over different storage.  :class:`DataPlane` defines
the whole public data surface once -- ``fetch``, ``fetch_chunks``,
``fetch_merged``, ``fetch_all``, ``ingest``, ``ingest_append``,
``ingest_stream`` -- so a request's precision tier is resolved here, in
one place, before any front hook runs; the hooks only ever see the
*resolved* read tag.  Ingest is one skeleton (pre-process -> charge CPU
-> write subsets -> record the label map on a fresh dataset -> receipt);
whole-dataset reads share one degrade policy.  An append needs no cache
step: chunks are immutable and the block cache holds nothing else.

A front supplies only the storage-facing steps -- ``_fetch`` (one
subset, lookup included), ``_fetch_chunks`` (a window of chunks),
``_read_subset``, ``_read_chunks``, ``_lookup_all``, ``_stored_tags``,
``_store_subsets``, ``_store_label``, ``_delete_stored``,
``_downgradable``, ``_charge_preprocess``,
``_charge_analysis``, ``_tier_counters``, ``_landed_on``,
``_stored_chunks`` -- plus
``label_map`` and ``preprocessor``, and the two hooks a *consumer* of the
plane needs (:meth:`DataPlane.members`, :meth:`DataPlane.chunks_nbytes`).
Nothing here knows which front it serves: a step that would have to ask
stays in the subclass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple

from repro.core.ingest import IngestPipeline, IngestPipelineConfig
from repro.core.labeler import LabelMap
from repro.core.lod import (
    base_tags,
    encoded_max_error,
    is_lod_tag,
    lod_max_error,
    lod_tag,
    validate_precision,
)
from repro.core.preprocessor import WindowResult
from repro.errors import (
    ConfigurationError,
    ContainerError,
    DegradedReadWarning,
    FaultError,
    LabelIndexError,
)
from repro.fs.base import StoredObject
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, span
from repro.sim import AllOf, Simulator

__all__ = ["DataPlane", "IngestReceipt", "merge_decoded_subsets"]


@dataclass
class IngestReceipt:
    """What an ingest returns: where everything went.

    ``analysis`` carries the in-situ analysis results
    (``InSituAnalysis.results()``) when the stream was ingested with a
    fused analysis hook; ``None`` otherwise.
    """

    logical: str
    label_map: LabelMap
    subset_sizes: Dict[str, int]
    backends: Dict[str, str]
    raw_nbytes: int
    compressed_nbytes: int
    analysis: Optional[Dict[str, object]] = None


def merge_decoded_subsets(
    logical: str,
    label_map: LabelMap,
    chunk_objs_by_tag: Dict[str, List[StoredObject]],
    decompress,
):
    """Reassemble whole frames from per-tag, per-chunk stored objects.

    The merge step behind ``fetch_merged``: every chunk decodes as a
    standalone container and its frames scatter directly into the tag's
    atom indices in the preallocated output.  Returns a
    :class:`~repro.formats.trajectory.Trajectory`.
    """
    import numpy as np

    from repro.formats.trajectory import Trajectory

    decoded: Dict[str, List] = {}
    for tag, chunk_objs in chunk_objs_by_tag.items():
        if any(obj.data is None for obj in chunk_objs):
            raise ConfigurationError(
                f"{logical}: fetch_merged needs materialized data"
            )
        decoded[tag] = [decompress(obj.data) for obj in chunk_objs]
    first_parts = next(iter(decoded.values()))
    nframes = sum(part.nframes for part in first_parts)
    full = np.empty((nframes, label_map.natoms, 3), dtype=np.float32)
    for tag, parts in decoded.items():
        indices = label_map.indices(tag)
        offset = 0
        for part in parts:
            full[offset : offset + part.nframes, indices, :] = part.coords
            offset += part.nframes
        if offset != nframes:
            raise ContainerError(
                f"{logical}#{tag}: {offset} frames, expected {nframes}"
            )
    if len(first_parts) == 1:
        steps, times_ps = first_parts[0].steps, first_parts[0].times_ps
    else:
        steps = np.concatenate([part.steps for part in first_parts])
        times_ps = np.concatenate([part.times_ps for part in first_parts])
    return Trajectory(coords=full, steps=steps, times_ps=times_ps)


class DataPlane:
    """The public read and ingest surface, tier resolution and the ingest
    skeletons, over a front's storage hooks (see the module docstring)."""

    #: Span-name family of the front (``ada.fetch`` / ``cluster.fetch``).
    _span_family = "ada"

    #: Default knobs for :meth:`ingest_stream`; a per-call config wins.
    ingest_config: Optional[IngestPipelineConfig] = None

    def __init__(
        self,
        sim: Simulator,
        metrics: Optional[MetricsRegistry],
        metric_labels: Dict[str, str],
    ):
        self.sim = sim
        # One registry for the whole middleware: every layer under the
        # front records into it, and ``metrics.value``/``query`` and the
        # Prometheus/JSON exporters are the only way to read a count.
        # Attached to the simulator so deep layers (devices) can record
        # without constructor threading.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        if getattr(sim, "metrics", None) is None:
            sim.metrics = self.metrics
        #: Labels on every series this front itself creates.
        self.metric_labels = metric_labels
        #: (logical, tag, reason) for every degraded (partial) fetch_all.
        self.degraded: List[Tuple[str, str, str]] = []
        self._label_maps: Dict[str, LabelMap] = {}
        self._ingest_pipeline: Optional[IngestPipeline] = None
        # Lazily-registered ``analysis_*`` metric families (only streams
        # ingested with a fused analysis hook create them).
        self._analysis_metric_fields: Optional[Dict[str, object]] = None

    # -- ingest (write) path --------------------------------------------------

    def ingest(
        self, logical: str, pdb_text: str, trajectory_blob: bytes
    ) -> Generator:
        """Process: pre-process and dispatch one materialized dataset.

        The decompression and categorization CPU cost lands on the storage
        node (when one is attached) -- the whole point of ADA is *where*
        this work happens.  A sharded front pre-processes once and routes
        each tagged subset to its holders.
        """
        return self._ingest_batch(logical, trajectory_blob, pdb_text)

    def ingest_append(self, logical: str, trajectory_blob: bytes) -> Generator:
        """Process: append a trajectory chunk to an already-ingested dataset.

        The structure was analyzed at first ingest; subsequent chunks from
        a running simulation reuse its label map and land as additional
        PLFS chunks on the same backends (on a cluster, the same holders).
        """
        return self._ingest_batch(logical, trajectory_blob, None)

    def _ingest_batch(
        self, logical: str, trajectory_blob: bytes, pdb_text: Optional[str]
    ) -> Generator:
        """Process: pre-process and dispatch one materialized blob --
        with ``pdb_text`` a fresh dataset (structure analyzed, label map
        recorded once the subsets have committed, so a failed ingest
        leaves nothing), without it a chunk appended under the map."""
        fresh = pdb_text is not None
        op = "ingest" if fresh else "ingest_append"
        with span(self.sim, f"{self._span_family}.{op}", logical=logical):
            if fresh:
                result = self.preprocessor.process(pdb_text, trajectory_blob)
                label_map = result.label_map
            else:
                label_map = self.label_map(logical)
                result = self.preprocessor.process_chunk(
                    label_map, trajectory_blob
                )
            yield from self._charge_preprocess(result.raw_nbytes)
            yield from self._store_subsets(logical, result.subsets)
            if fresh:
                yield from self._store_label(logical, label_map)
        return self._receipt(
            logical,
            label_map,
            {tag: len(blob) for tag, blob in result.subsets.items()},
            result.raw_nbytes,
            result.compressed_nbytes,
        )

    def ingest_stream(
        self,
        logical: str,
        trajectory_blob: bytes,
        pdb_text: Optional[str] = None,
        config: Optional[IngestPipelineConfig] = None,
        analysis: Optional[object] = None,
    ) -> Generator:
        """Process: streaming windowed ingest with write-behind dispatch
        and, optionally, fused in-situ analysis.

        The arriving trajectory is split into GOF-aligned windows; each
        window is decompressed, categorized, and encoded on the storage
        CPU while *previous* windows' subsets drain to the backends: each
        charged window is one process, dispatched after the window before
        it, and at most ``depth`` windows are held (see
        :class:`~repro.core.ingest.IngestPipeline`).  Peak buffered
        memory is O(window x depth) instead of the whole raw dataset, and
        the CPU and device work overlap in simulated time.  On a cluster
        each window's dispatch fans its tags out to their holders; chunk
        order per ``(node, logical, tag)`` follows window order, so every
        replica stores byte-identical chunks.

        ``analysis`` fuses an in-situ analysis step into each window's
        process: an object with ``consume(start, stop, coords)`` /
        ``results()`` -- e.g. :class:`repro.analysis.online.InSituAnalysis`
        -- sees each window's decoded coordinates exactly once, in window
        order and *before* the window dispatches and its buffers are
        released, overlapped in simulated time with the next window's CPU
        work and the previous window's dispatch (charged via
        ``_charge_analysis`` on the storage nodes' analysis slots).  A
        hook that raises fails the stream with its exception.
        Frame offsets are rebased by the hook's ``frames_seen`` at stream
        start, so one hook may span a dataset's appended stream segments.
        The hook's results land on the receipt's ``analysis`` field and
        the ``analysis_*`` metric families.

        With ``pdb_text`` the structure is analyzed first (a fresh
        dataset); without it the stream appends under the dataset's
        existing label map, exactly like :meth:`ingest_append`.  Stored
        bytes -- chunk paths, contents, CRCs, index records -- are
        identical to the serial (``pipelined=False``) schedule of the
        same windows, analyzed or not.  ``config`` defaults to the
        front's ``ingest_config``, else :class:`IngestPipelineConfig`.
        """
        config = config or self.ingest_config or IngestPipelineConfig()
        if analysis is not None and not callable(
            getattr(analysis, "consume", None)
        ):
            raise ConfigurationError(
                "analysis hook must provide consume(start, stop, coords)"
            )
        appending = pdb_text is None
        if appending:
            label_map = self.label_map(logical)
        else:
            label_map = self.preprocessor.analyze_structure(pdb_text)
            yield from self._store_label(logical, label_map)
        pipeline = self._ingest_pipeline_for(config)
        windows = self.preprocessor.process_windows(
            label_map, trajectory_blob, config.window_frames,
            keep_coords=analysis is not None,
        )
        subset_sizes: Dict[str, int] = {}
        raw_total = [0]

        def dispatch_window(result: WindowResult) -> Generator:
            raw_total[0] += result.raw_nbytes
            for tag, blob in result.subsets.items():
                subset_sizes[tag] = subset_sizes.get(tag, 0) + len(blob)
            return self._store_subsets(logical, result.subsets, config)

        analyze_window = None
        if analysis is not None:
            mets = self._analysis_metrics()
            # Appended segments continue the hook's frame numbering; a
            # fresh ingest keeps raw offsets so re-running a stream that
            # failed midway lets the hook's replay guard skip the windows
            # it already consumed instead of double-counting them.
            base = int(getattr(analysis, "frames_seen", 0)) if appending else 0

            def analyze_window(result: WindowResult) -> Generator:
                with span(
                    self.sim, "ingest.analysis",
                    window=result.index, frames=result.nframes,
                ):
                    t0 = self.sim.now
                    yield from self._charge_analysis(result.raw_nbytes)
                    fresh = analysis.consume(
                        base + result.start, base + result.stop, result.coords
                    )
                    result.coords = None  # window buffer released
                    elapsed = self.sim.now - t0
                    mets["windows"].inc()
                    mets["frames"].inc(int(fresh or 0))
                    mets["seconds"].inc(elapsed)
                    mets["window_seconds"].observe(elapsed)
                    mets["frames_seen"].set(
                        getattr(analysis, "frames_seen", 0)
                    )

        with span(
            self.sim, f"{self._span_family}.ingest_stream",
            logical=logical, pipelined=config.pipelined,
            window_frames=config.window_frames, fused=analysis is not None,
        ):
            yield from pipeline.run(
                windows, self._charge_preprocess, dispatch_window,
                analyze_window,
            )
        results = None
        if callable(getattr(analysis, "results", None)):
            results = analysis.results()
        return self._receipt(
            logical, label_map, subset_sizes, raw_total[0],
            len(trajectory_blob), analysis=results,
        )

    def _ingest_pipeline_for(
        self, config: IngestPipelineConfig
    ) -> IngestPipeline:
        """One pipeline per config; counters accumulate across streams."""
        if (
            self._ingest_pipeline is None
            or self._ingest_pipeline.config != config
        ):
            self._ingest_pipeline = IngestPipeline(
                self.sim, config, metrics=self.metrics,
                metric_labels=self.metric_labels,
            )
        return self._ingest_pipeline

    def _analysis_metrics(self) -> Dict[str, object]:
        """The lazily-registered ``analysis_*`` metric families."""
        if self._analysis_metric_fields is None:
            extra = self.metric_labels
            self._analysis_metric_fields = {
                "windows": self.metrics.counter(
                    "analysis_windows_total", **extra
                ),
                "frames": self.metrics.counter(
                    "analysis_frames_total", **extra
                ),  # fresh frames consumed (replays excluded)
                "seconds": self.metrics.counter(
                    "analysis_seconds_total", **extra
                ),
                "window_seconds": self.metrics.histogram(
                    "analysis_window_seconds", **extra
                ),
                "frames_seen": self.metrics.gauge(
                    "analysis_frames_seen", **extra
                ),
            }
        return self._analysis_metric_fields

    def _receipt(
        self,
        logical: str,
        label_map: LabelMap,
        subset_sizes: Dict[str, int],
        raw_nbytes: int,
        compressed_nbytes: int,
        analysis: Optional[Dict[str, object]] = None,
    ) -> IngestReceipt:
        return IngestReceipt(
            logical=logical,
            label_map=label_map,
            subset_sizes=subset_sizes,
            backends={
                tag: self._landed_on(logical, tag) for tag in subset_sizes
            },
            raw_nbytes=raw_nbytes,
            compressed_nbytes=compressed_nbytes,
            analysis=analysis,
        )

    # -- read path ------------------------------------------------------------

    def fetch(self, logical: str, tag: str, precision: str = "full") -> Generator:
        """Process: tag-selective read (``mol addfile bar.xtc tag p``).

        ``precision`` picks the tier: ``"full"`` (exact bytes, default)
        or ``"lod"`` (the coarse layer when the dataset has one -- see
        :meth:`_resolve_tier`).  An LOD read returns an object tagged
        ``tier="lod"`` with the error bound its bytes were encoded with
        on ``max_error``.  The tier resolves once, here; the front's
        ``_fetch`` hook gets the resolved read tag (a sharded front
        routes on it: the ``lod:`` sibling is a stream of its own).
        """
        tier, read_tag = self._resolve_tier(logical, tag, precision)
        with span(
            self.sim, f"{self._span_family}.fetch",
            logical=logical, tag=tag, tier=tier,
        ):
            obj = yield from self._fetch(logical, read_tag)
            if tier == "lod":
                [obj] = self._served_coarse([obj])
            return obj

    def fetch_chunks(
        self, logical: str, tag: str, chunks, precision: str = "full"
    ) -> Generator:
        """Process: read selected chunks of one subset (windowed playback).

        The chunk-granular primitive streaming playback drives: cache
        hits serve at memory/SSD speed, misses coalesce into span reads,
        and -- when a prefetcher is attached -- each demand window trains
        the stride detector and may launch the next window's speculative
        read in the background (a sharded front routes a stream stickily,
        so one node's prefetcher stays trained on it).  Returns the
        per-chunk :class:`StoredObject` list in chunk order (zero-copy
        buffers; each chunk is a standalone container).

        ``precision`` selects the tier exactly as in :meth:`fetch`; the
        LOD layer writes one sibling chunk per base chunk, so chunk
        indices are tier-independent and scrubbing can switch tiers
        mid-stream.  The prefetcher observes the *resolved* tag: each
        tier trains its own stride stream and warms its own cache keys.
        """
        chunks = list(chunks)
        tier, read_tag = self._resolve_tier(logical, tag, precision)
        with NULL_SPAN if self.sim.tracer is None else span(
            self.sim, f"{self._span_family}.fetch_chunks",
            logical=logical, tag=tag, chunks=len(chunks), tier=tier,
        ):
            objs = yield from self._fetch_chunks(logical, read_tag, chunks)
            if tier == "lod":
                self._count_tier("chunks", len(objs))
                objs = self._served_coarse(objs)
            return objs

    def _served_coarse(self, objs: List[StoredObject]) -> List[StoredObject]:
        """Count one coarse-tier answer and stamp each object with the
        bound its own frame headers say it was encoded with."""
        self._count_tier("served")
        self._count_tier("served_bytes", sum(o.nbytes for o in objs))
        return [
            o._replace(tier="lod", max_error=encoded_max_error([o.data]))
            for o in objs
        ]

    # -- whole-dataset reads --------------------------------------------------

    def fetch_all(self, logical: str, allow_degraded: bool = True) -> Generator:
        """Process: read every subset of a dataset; returns ``{tag: obj}``.

        Graceful degradation: when an *expendable* subset (one living
        entirely off the active tier; on a cluster, an unreplicated one)
        fails permanently -- retries exhausted, a permanent fault, every
        holder down -- the read downgrades to the surviving subsets with
        a :class:`DegradedReadWarning` surfaced and the loss recorded in
        :attr:`degraded`.  Losing any other subset always raises: there
        is no useful session without it.  Pass ``allow_degraded=False``
        to make any failure fatal.
        """
        with span(
            self.sim, f"{self._span_family}.fetch_all", logical=logical
        ) as sp:
            yield from self._lookup_all(logical)
            # Whole-dataset reads are a full-precision surface: the LOD
            # sibling tags are a *representation* of the base subsets,
            # not extra data, so they are excluded here (merging a subset
            # at two precisions would double-count its atoms).
            tags = self.tags(logical)
            procs = [
                self.sim.process(
                    self._guarded(self._read_subset(logical, tag)),
                    name=f"fetch:{logical}#{tag}",
                )
                for tag in tags
            ]
            results = yield AllOf(self.sim, procs)
            failed = [
                (tag, result) for tag, result in zip(tags, results)
                if isinstance(result, FaultError)
            ]
            # A fatal loss raises before any expendable one is recorded:
            # a read that fails degraded nothing.
            for tag, exc in failed:
                if not (allow_degraded and self._downgradable(logical, tag)):
                    raise exc
            for tag, exc in failed:
                self._record_degraded(logical, tag, str(exc))
                sp.tag(degraded=True)
                warnings.warn(
                    DegradedReadWarning(
                        f"{logical}: expendable subset {tag!r} "
                        f"unavailable, loading without it ({exc})"
                    ),
                    stacklevel=2,
                )
            return {
                tag: result for tag, result in zip(tags, results)
                if not isinstance(result, FaultError)
            }

    @staticmethod
    def _guarded(read: Generator) -> Generator:
        """Process: run one subset read, returning (not raising) fault
        errors so a sibling's failure cannot mask this tag's outcome."""
        try:
            obj = yield from read
        except FaultError as exc:
            return exc
        return obj

    def _record_degraded(self, logical: str, tag: str, reason: str) -> None:
        self.degraded.append((logical, tag, reason))

    def fetch_merged(self, logical: str, precision: str = "full") -> Generator:
        """Process: read every subset and reassemble whole frames.

        Materialized datasets only: each subset decodes and its atoms are
        scattered back to their original indices per the label map -- the
        merge step a generic full-data consumer needs.  Returns a
        :class:`~repro.formats.trajectory.Trajectory`.  On a cluster each
        tag reads from its own holder and frames reassemble at the front.

        The merge is zero-copy up to the final scatter: subsets arrive as
        per-chunk buffers (never joined into one blob), each chunk is a
        standalone container whose raw decode yields views over the
        stored bytes, and every chunk's frames land directly in its slice
        of the preallocated output.  Any chunk failure is fatal -- a
        partial dataset cannot be reassembled into whole frames.

        ``precision`` degrades the read to the coarse tier only as a
        whole: every base subset needs an LOD sibling, or frame counts
        would disagree mid-merge (a partial layer falls back to full).
        The merged coordinates' error bound is the loosest over the
        chunks served.
        """
        tier, _ = self._resolve_tier(logical, None, precision)
        with span(
            self.sim, f"{self._span_family}.fetch_merged",
            logical=logical, tier=tier,
        ):
            yield from self._lookup_all(logical)
            tags = self.tags(logical)
            procs = [
                self.sim.process(
                    self._read_chunks(
                        logical, lod_tag(tag) if tier == "lod" else tag
                    ),
                    name=f"fetch_merged:{logical}#{tag}",
                )
                for tag in tags
            ]
            results = yield AllOf(self.sim, procs)
            bound = None
            if tier == "lod":
                self._count_tier("served")
                self._count_tier(
                    "served_bytes",
                    sum(o.nbytes for objs in results for o in objs),
                )
                bound = encoded_max_error(
                    o.data for objs in results for o in objs
                )
        merged = merge_decoded_subsets(
            logical,
            self.label_map(logical),
            dict(zip(tags, results)),
            self.preprocessor.decompressor.decompress,
        )
        # merge_decoded_subsets yields a plain Trajectory; the tier verdict
        # rides along as attributes (mirrors StoredObject.tier/max_error).
        merged.tier = tier
        merged.max_error = bound
        return merged

    def _lookup_all(self, logical: str):
        """Process: the metadata cost of a whole-dataset read (free
        unless the front pays an index lookup)."""
        return ()

    # -- what a consumer of the plane may ask ---------------------------------

    def members(self) -> List["DataPlane"]:
        """The single-node middlewares underneath (``[self]``, or one per
        shard node): whoever wires or inspects a deployment's per-node
        parts -- block caches, prefetchers, backends -- loops over these."""
        raise NotImplementedError

    def chunks_nbytes(self, logical: str, tag: str, chunks) -> int:
        """Stored bytes of the listed chunks of one subset (absent chunks
        count nothing): the serving layer's admission-cost estimate, from
        index metadata alone."""
        raise NotImplementedError

    # -- metadata -------------------------------------------------------------

    def tags(self, logical: str) -> List[str]:
        """The dataset's base subset tags (LOD siblings excluded)."""
        return base_tags(self._stored_tags(logical))

    def all_tags(self, logical: str) -> List[str]:
        """Every stored tag, the LOD family included (operator surface)."""
        return list(self._stored_tags(logical))

    def container_nbytes(self, logical: str) -> int:
        """Stored bytes of a dataset, every representation (LOD siblings
        included): Σ ``subset_nbytes`` over :meth:`all_tags`."""
        return sum(self.subset_nbytes(logical, t) for t in self.all_tags(logical))

    def has_lod(self, logical: str, tag: Optional[str] = None) -> bool:
        """Does the dataset carry an LOD sibling for ``tag`` (or, with no
        tag, for *every* base subset -- the merged-read requirement)?"""
        try:
            stored = self._stored_tags(logical)
        except (ContainerError, LabelIndexError):
            return False
        if tag is not None:
            return lod_tag(tag) in stored
        bases = base_tags(stored)
        return bool(bases) and all(lod_tag(t) in stored for t in bases)

    def lod_bound(self, logical: str) -> Optional[float]:
        """The per-atom-coordinate error bound of the dataset's stored LOD
        layer: the loosest its chunks' frame headers record.  Without a
        stored layer, the bound the configured grid would encode (None
        when the tier is disabled)."""
        try:
            stored = self._stored_tags(logical)
        except (ContainerError, LabelIndexError):
            stored = []
        blobs = [
            blob for tag in stored if is_lod_tag(tag)
            for blob in self._stored_chunks(logical, tag)
        ]
        if blobs:
            return encoded_max_error(blobs)
        precision = self.preprocessor.lod_precision
        return None if precision is None else lod_max_error(precision)

    def remove(self, logical: str) -> int:
        """Delete a dataset -- every stored subset and everything the
        middleware remembers about it.  Returns the freed bytes (capacity
        is released on the backing devices)."""
        freed = self._delete_stored(logical)
        self._label_maps.pop(logical, None)
        return freed

    # -- precision tiers ------------------------------------------------------

    def _resolve_tier(
        self, logical: str, tag: Optional[str], precision: str
    ) -> Tuple[str, Optional[str]]:
        """Map the ``precision`` knob to a concrete (tier, read tag).

        ``"full"`` never looks at anything; ``"lod"`` serves the coarse
        layer when the dataset has one and falls back (counted) when it
        does not.  The caller's choice is the only input: no load signal
        changes a tier.  ``tag=None`` resolves a merged read, which needs
        a sibling for *every* base subset.

        The returned tag is the one to *read* -- a sharded front must
        know it before routing, because the ``lod:`` sibling is its own
        routed stream on its base's holders.  Each request resolves
        once, so every tier event is counted here exactly once.
        """
        precision = validate_precision(precision)
        if precision == "full" or (tag is not None and is_lod_tag(tag)):
            # A caller addressing the LOD family directly (operator
            # tooling) bypasses tier selection.
            return "full", tag
        if not self.has_lod(logical, tag):
            self._count_tier("fallback")
            return "full", tag
        self._count_tier("routed")
        return "lod", lod_tag(tag) if tag is not None else None

    def _count_tier(self, event: str, amount: float = 1) -> None:
        """Bump the front's counter for a tier event, if it keeps one."""
        counter = self._tier_counters().get(event)
        if counter is not None:
            counter.inc(amount)

"""Adaptive chunk prefetch: overlap the next window's I/O with decode.

Streaming-MD pipelines show that *overlap of fetch and decode*, not raw
device speed, dominates end-to-end trajectory throughput.  The
:class:`Prefetcher` provides that overlap for ADA's chunked read path: it
watches the chunk windows a playback consumer demands, and once the access
pattern is confirmed sequential (or strided -- skip-frame playback), it
speculatively reads the *next* window into the shared
:class:`~repro.fs.cache.BlockCache` as a background DES process while the
consumer decodes the current one.

Speculation is guarded by two watermarks:

* **cache pressure** -- when L1 occupancy crosses :data:`HIGH_WATERMARK` the
  prefetcher stands down rather than evict blocks the consumer still
  wants (speculation must never worsen the demand hit rate);
* **fault degradation** -- when the retry layer reports new transient
  faults/timeouts/degraded reads since the last window, the backend is
  struggling; speculative load would compound the damage, so the
  prefetcher backs off until a clean window passes.

Prefetched blocks ride the same retry + per-chunk CRC path as demand
reads, so a chaos run with prefetch on remains bit-identical to one with
it off -- the property ``tests/faults`` asserts across seeds.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.core.retriever import IORetriever
from repro.errors import FaultError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span as trace_span
from repro.sim import Process, Simulator

__all__ = ["Prefetcher"]

#: L1 occupancy at which speculation stands down -- and at which
#: ``precision="auto"`` reads degrade to the LOD tier, so "the server is
#: under pressure" means one thing.
HIGH_WATERMARK = 0.85

#: Speculative windows one tenant may have in flight at once.
MAX_INFLIGHT = 1


class _StreamState:
    """Per-(shard, tenant, logical, tag) access-pattern tracker.

    Two detectors run side by side: the exact-stride detector (two equal
    nonzero strides confirm; prediction extrapolates the stride, forward
    *or* backward) and a coarser direction detector (two consecutive
    same-sign strides of any magnitude confirm a playback direction --
    jumpy scrubbing towards one end of the trajectory).  Exact stride
    wins when both hold; sign-alternating access (rocking playback,
    random seeks) confirms neither, reproducing the paper's observation
    that random access defeats readahead.
    """

    __slots__ = (
        "last_start", "last_len", "stride", "confirmed",
        "last_sign", "direction",
    )

    def __init__(self) -> None:
        self.last_start: Optional[int] = None
        self.last_len = 0
        self.stride: Optional[int] = None
        self.confirmed = False
        self.last_sign = 0  # sign of the most recent nonzero stride
        self.direction = 0  # +1/-1 when two same-sign strides confirmed


class Prefetcher:
    """Stride-detecting, watermark-guarded block prefetcher.

    ``observe`` is called by the demand path after each window fetch; it
    never blocks the caller -- speculative reads run as independent sim
    processes whose only output is a warmer cache.
    """

    def __init__(
        self,
        sim: Simulator,
        retriever: IORetriever,
        degradation_source: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ):
        self.sim = sim
        self.retriever = retriever
        self.degradation_source = degradation_source
        # Multi-tenant serving (repro.serve) assigns these: ``tenant_source``
        # resolves the ambient tenant so stride state and the in-flight
        # cap become *per tenant* (two tenants interleaving sequential
        # scans on one dataset must not corrupt each other's pattern or
        # starve each other's speculation slot); ``budget_source`` maps a
        # tenant to its cap on resident speculative bytes.  Left at None,
        # both collapse to the single-tenant behavior.
        self.tenant_source: Optional[Callable[[], Optional[str]]] = None
        self.budget_source: Optional[Callable[[str], Optional[float]]] = None
        # Sharded deployments label each prefetcher (``{"shard": name}``):
        # the shard id becomes part of every stream key, so one logical
        # scan that touches datasets owned by different shards tracks an
        # independent stride per shard instead of looking like a broken
        # pattern to a single global detector.
        self.metric_labels = dict(metric_labels or {})
        self.shard_id: Optional[str] = self.metric_labels.get("shard")
        self._streams: Dict[
            Tuple[Optional[str], Optional[str], str, str], _StreamState
        ] = {}
        self._inflight: Dict[Optional[str], list] = {}
        self._last_degradation: Optional[float] = None
        self.metrics = (
            metrics if metrics is not None else retriever.metrics
        )
        self._metric_fields = {
            field: self.metrics.counter(
                f"prefetch_{field}_total", **self.metric_labels
            )
            for field in (
                "issued",  # speculative windows launched
                "issued_direction",  # of which: direction-only (jumpy scrub)
                "chunks_requested",
                "suppressed_pressure",
                "suppressed_degraded",
                "suppressed_pattern",  # no confirmed stride yet / random access
                "suppressed_inflight",
                "suppressed_eof",  # predicted chunks clamped at the subset's end
                "suppressed_budget",  # tenant's speculative-byte budget exhausted
                "suppressed_resident",  # every predicted chunk already cached
                "failed",  # speculative reads that hit a permanent fault
            )
        }

    # -- the demand-path hook ------------------------------------------------

    def observe(
        self, logical: str, tag: str, chunks: Sequence[int]
    ) -> Optional[Process]:
        """Record a demand window; maybe launch the next window's prefetch.

        Returns the background :class:`Process` when one was launched
        (callers never need to wait on it) or ``None`` when speculation
        was suppressed.
        """
        if not chunks:
            return None
        counters = self._metric_fields
        tenant = self.tenant_source() if self.tenant_source is not None else None
        start, span = min(chunks), len(chunks)
        state = self._streams.setdefault(
            (self.shard_id, tenant, logical, tag), _StreamState()
        )
        self._advance_pattern(state, start, span)
        if not state.confirmed and not state.direction:
            counters["suppressed_pattern"].inc()
            return None
        if self._degraded():
            counters["suppressed_degraded"].inc()
            return None
        cache = self.retriever.cache
        if cache is None or cache.pressure() >= HIGH_WATERMARK:
            counters["suppressed_pressure"].inc()
            return None
        inflight = self._inflight.setdefault(tenant, [])
        inflight[:] = [p for p in inflight if p.is_alive]
        if len(inflight) >= MAX_INFLIGHT:
            counters["suppressed_inflight"].inc()
            return None
        if state.confirmed:
            # Exact stride (forward or backward playback, skip-frame):
            # extrapolate the stride itself.
            next_start = start + state.stride
            predicted = range(next_start, next_start + span)
        else:
            # Direction-only (jumpy scrub towards one end): magnitudes
            # don't repeat, so the best prediction is the window adjacent
            # to the current one in the playback direction.
            if state.direction > 0:
                predicted = range(start + span, start + 2 * span)
            else:
                predicted = range(start - span, start)
            next_start = predicted.start
        # Clamp the predicted window to the chunks the index actually has:
        # speculation past chunk 0 *or* past the subset's last chunk would
        # only spawn doomed no-op processes and inflate the issue counters.
        last_chunk = self.retriever.plfs.last_chunk(logical, tag)
        targets = [c for c in predicted if 0 <= c <= last_chunk]
        clamped = span - len(targets)
        if clamped:
            counters["suppressed_eof"].inc(clamped)
        if not targets:
            return None
        if all(cache.peek((logical, tag, chunk)) for chunk in targets):
            counters["suppressed_resident"].inc()  # nothing left to read
            return None
        if not self._within_budget(tenant, cache, logical, tag, targets):
            counters["suppressed_budget"].inc()
            return None
        counters["issued"].inc()
        if not state.confirmed:
            counters["issued_direction"].inc()
        counters["chunks_requested"].inc(len(targets))
        proc = self.sim.process(
            self._prefetch(logical, tag, targets),
            name=f"prefetch:{logical}#{tag}:{next_start}",
        )
        inflight.append(proc)
        return proc

    # -- internals -----------------------------------------------------------

    def _advance_pattern(
        self, state: _StreamState, start: int, span: int
    ) -> None:
        """Sequential/strided detection over successive window starts.

        Two same-stride steps confirm a pattern; any break (rocking
        playback, random seeks) resets confirmation, reproducing the
        paper's observation that random access defeats readahead.
        """
        if state.last_start is not None:
            stride = start - state.last_start
            if stride != 0 and stride == state.stride:
                state.confirmed = True
            else:
                state.confirmed = False
                state.stride = stride if stride != 0 else None
            sign = (stride > 0) - (stride < 0)
            state.direction = sign if sign and sign == state.last_sign else 0
            state.last_sign = sign
        state.last_start = start
        state.last_len = span

    def _within_budget(self, tenant, cache, logical, tag, targets) -> bool:
        """Would this window keep the tenant's speculative bytes capped?

        The budget counts *resident prefetched-but-unused* bytes, so it is
        naturally reclaimable: demand consumption clears the block's
        ``prefetched`` flag and frees budget for the next window.
        """
        if tenant is None or self.budget_source is None:
            return True
        budget = self.budget_source(tenant)
        if budget is None:
            return True
        resident_fn = getattr(cache, "prefetched_bytes", None)
        resident = float(resident_fn(tenant)) if resident_fn is not None else 0.0
        stored = self.retriever.plfs.chunk_record
        records = [stored(logical, tag, chunk) for chunk in targets]
        window_bytes = sum(r.nbytes for r in records if r is not None)
        return resident + window_bytes <= float(budget)

    def _degraded(self) -> bool:
        """Has the fault layer reported new trouble since the last look?"""
        if self.degradation_source is None:
            return False
        level = float(self.degradation_source())
        previous, self._last_degradation = self._last_degradation, level
        return previous is not None and level > previous

    def _prefetch(self, logical: str, tag: str, targets: Sequence[int]):
        """Process: the speculative read itself; absorbs 'chunk gone'.

        The window prediction can run past the end of the subset (or race
        a concurrent ``remove``); that is an expected miss, not an error,
        so the process filters to chunks that exist and swallows nothing
        else -- fault errors propagate through the retriever's retry
        machinery exactly as demand reads do.
        """
        stored = self.retriever.plfs.chunk_record
        targets = [c for c in targets if stored(logical, tag, c) is not None]
        if not targets:
            return 0
        with trace_span(
            self.sim, "prefetch.window",
            logical=logical, tag=tag,
            chunks=",".join(str(c) for c in targets),
        ) as sp:
            try:
                count = yield from self.retriever.prefetch_chunks(
                    logical, tag, targets
                )
            except FaultError:
                # Speculation is best-effort: a permanent failure here must
                # not crash anything -- the demand read will surface it (or
                # route around it via graceful degradation) when it actually
                # matters.
                self._metric_fields["failed"].inc()
                sp.tag(failed=True)
                return 0
            sp.tag(admitted=count)
            return count

"""The streaming ingest pipeline: windowed pre-processing overlapped with
write-behind dispatch and (optionally) fused in-situ analysis.

The monolithic ingest path (:meth:`ADA.ingest`) decompresses and
categorizes the *entire* arriving trajectory on the storage CPU, then
dispatches every subset -- peak memory is the whole raw dataset and the
backends sit idle while the CPU works (and vice versa).  This module
pipelines the stages:

* the **producer** pulls GOF-aligned windows from
  :meth:`DataPreProcessor.process_windows`, pays the storage-CPU charge
  for each, and pushes the encoded per-tag blobs into a bounded
  write-behind queue;
* the optional **analyzer** runs the fused in-situ analysis hook on each
  window's decoded coordinates *before* the window's buffers are
  released -- the online operators see every frame exactly once without
  a second decompression pass;
* the **consumer** drains the queue in arrival order and dispatches each
  window's subsets as coalesced chunk runs
  (:meth:`IODispatcher.dispatch_run`).

Because the storage CPU, the analysis slot, and the backend devices are
independent simulated resources, window *k*'s categorize/encode overlaps
window *k-1*'s analysis which overlaps window *k-2*'s device writes.  The
buffer is bounded by ``depth`` windows and (optionally)
``max_buffered_bytes``, so peak buffered memory is O(window x depth), not
O(raw dataset); a full queue *backpressures* the producer, which is how a
slow tier throttles a fast simulation stream instead of ballooning the
buffer.  An empty buffer always admits one window, so a single oversized
window can never deadlock the pipeline.

Determinism: the consumer dispatches windows strictly in arrival order
and each window's tags go out sorted, so chunk numbering -- and therefore
every stored path, CRC, and index record -- is identical to the serial
(``pipelined=False``) schedule over the same windows, with or without an
analysis stage.  The pipeline only moves *when* bytes hit the backends,
never *which* bytes.

Abandonment: a caller that abandons the driving generator mid-stream
(``close()`` / ``GeneratorExit``) -- or any stage failure -- tears the
run down through :meth:`IngestPipeline._abort`: the still-alive stages
are interrupted, the window iterator is closed, and every buffered
window's accounting is returned, so a shared pipeline (and its
``ingest_buffered_bytes`` gauge) is clean for the next stream.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Generator, Iterable, List, Optional

from repro.core.preprocessor import WindowResult
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.sim import AllOf, Event, Interrupt, Process, Simulator

__all__ = ["IngestPipeline", "IngestPipelineConfig"]

#: Frames per ingest window when the caller does not choose (compressed
#: streams round up to whole GOFs, so the effective window may be larger).
DEFAULT_WINDOW_FRAMES = 64


@dataclass(frozen=True)
class IngestPipelineConfig:
    """Tuning knobs for the streaming ingest path.

    ``depth`` bounds how many pre-processed windows may be buffered
    (queued plus in analysis or dispatch) at once; ``max_buffered_bytes``
    adds a byte watermark on top.  ``pipelined=False`` runs the identical
    windowed schedule with no overlap and no coalescing -- the serial
    baseline the ``bench-ingest`` harness measures against.
    """

    window_frames: int = DEFAULT_WINDOW_FRAMES
    depth: int = 4
    max_buffered_bytes: Optional[int] = None
    coalesce: bool = True
    pipelined: bool = True

    def __post_init__(self) -> None:
        if self.window_frames < 1:
            raise ConfigurationError(
                f"window_frames must be >= 1, got {self.window_frames}"
            )
        if self.depth < 1:
            raise ConfigurationError(f"depth must be >= 1, got {self.depth}")
        if self.max_buffered_bytes is not None and self.max_buffered_bytes < 1:
            raise ConfigurationError(
                f"max_buffered_bytes must be >= 1, got {self.max_buffered_bytes}"
            )


class IngestPipeline:
    """Producer/analyzer/consumer overlap of per-window CPU work,
    in-situ analysis, and dispatch.

    One instance may :meth:`run` several streams; counters accumulate in
    the shared :class:`MetricsRegistry` (``ingest_*`` families), so the
    write path's queue depth, buffered bytes, and backpressure stalls are
    visible in the same exports as the read path's cache and coalescing
    counters.
    """

    def __init__(
        self,
        sim: Simulator,
        config: Optional[IngestPipelineConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ):
        self.sim = sim
        self.config = config or IngestPipelineConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metric_labels = dict(metric_labels or {})
        extra = self.metric_labels
        self._metric_fields = {
            "windows": self.metrics.counter("ingest_windows_total", **extra),
            "backpressure_waits": self.metrics.counter(
                "ingest_backpressure_waits_total", **extra
            ),  # producer stalls on a full queue
            "backpressure_seconds": self.metrics.counter(
                "ingest_backpressure_seconds_total", **extra
            ),  # simulated seconds spent stalled
            "cpu_seconds": self.metrics.counter(
                "ingest_cpu_seconds_total", **extra
            ),
            "dispatch_seconds": self.metrics.counter(
                "ingest_dispatch_seconds_total", **extra
            ),
            "analysis_seconds": self.metrics.counter(
                "ingest_analysis_seconds_total", **extra
            ),  # simulated seconds in the fused in-situ stage
        }
        #: Windows currently buffered: queued plus in analysis/dispatch.
        self._held = 0
        self._buffered_bytes = 0
        self.metrics.gauge("ingest_queue_depth", fn=lambda: self._held, **extra)
        self.metrics.gauge(
            "ingest_buffered_bytes", fn=lambda: self._buffered_bytes, **extra
        )
        self._peak_depth_gauge = self.metrics.gauge(
            "ingest_queue_depth_peak", **extra
        )
        self._peak_bytes_gauge = self.metrics.gauge(
            "ingest_buffered_bytes_peak", **extra
        )
        self._space_event: Optional[Event] = None
        self._feed_event: Optional[Event] = None
        self._data_event: Optional[Event] = None
        self.last_elapsed_s = 0.0

    # -- entry point --------------------------------------------------------

    def run(
        self,
        windows: Iterable[WindowResult],
        cpu_charge: Callable[[int], Generator],
        dispatch_window: Callable[[WindowResult], Generator],
        analyze_window: Optional[Callable[[WindowResult], Generator]] = None,
    ) -> Generator:
        """Process: drive a window stream through pre-process (+ analysis)
        + dispatch.

        ``cpu_charge(raw_nbytes)`` is the storage-CPU cost of one window
        (a DES process); ``analyze_window(result)``, when given, runs the
        fused in-situ analysis pass on one window (a DES process) before
        that window may dispatch; ``dispatch_window(result)`` writes one
        window's subsets and returns its index records.  Returns the
        per-window record lists in window order.
        """
        started = self.sim.now
        records: List[list] = []
        counters = self._metric_fields
        if not self.config.pipelined:
            try:
                for result in windows:
                    t0 = self.sim.now
                    yield from cpu_charge(result.raw_nbytes)
                    counters["cpu_seconds"].inc(self.sim.now - t0)
                    if analyze_window is not None:
                        t0 = self.sim.now
                        yield from analyze_window(result)
                        counters["analysis_seconds"].inc(self.sim.now - t0)
                    t0 = self.sim.now
                    recs = yield from dispatch_window(result)
                    counters["dispatch_seconds"].inc(self.sim.now - t0)
                    records.append(recs)
                    counters["windows"].inc()
                self.last_elapsed_s = self.sim.now - started
                return records
            finally:
                self._close_windows(windows)
        state: Dict[str, object] = {
            "produced": False,
            "analyzed": False,
            "error": None,
            "abort": False,
        }
        pending: Deque[WindowResult] = deque()  # encoded, awaiting analysis
        ready: Deque[WindowResult] = deque()  # analyzed, awaiting dispatch
        fused = analyze_window is not None
        procs: List[Process] = [
            self.sim.process(
                self._produce(
                    windows, cpu_charge, pending if fused else ready,
                    state, fused,
                ),
                name="ingest:producer",
            )
        ]
        if fused:
            procs.append(
                self.sim.process(
                    self._analyze(analyze_window, pending, ready, state),
                    name="ingest:analyzer",
                )
            )
        procs.append(
            self.sim.process(
                self._consume(dispatch_window, ready, state, records),
                name="ingest:consumer",
            )
        )
        try:
            yield AllOf(self.sim, procs)
        except BaseException:
            self._abort(procs, windows, (pending, ready), state)
            raise
        finally:
            self.last_elapsed_s = self.sim.now - started
        return records

    # -- the stages ---------------------------------------------------------

    def _produce(
        self,
        windows: Iterable[WindowResult],
        cpu_charge: Callable[[int], Generator],
        queue: Deque[WindowResult],
        state: Dict[str, object],
        fused: bool,
    ) -> Generator:
        """Process: pre-process windows, enqueue under backpressure."""
        counters = self._metric_fields
        try:
            for result in windows:
                t0 = self.sim.now
                yield from cpu_charge(result.raw_nbytes)
                counters["cpu_seconds"].inc(self.sim.now - t0)
                while (
                    state["error"] is None
                    and not state["abort"]
                    and not self._admits(result)
                ):
                    counters["backpressure_waits"].inc()
                    with span(
                        self.sim, "ingest.backpressure",
                        window=result.index, depth=self._held,
                        buffered=self._buffered_bytes,
                    ):
                        t0 = self.sim.now
                        event = self.sim.event()
                        self._space_event = event
                        yield event
                        counters["backpressure_seconds"].inc(self.sim.now - t0)
                if state["abort"]:
                    return
                if state["error"] is not None:
                    # A downstream stage already failed; surface its error
                    # here too so the AllOf barrier cannot hang on us.
                    raise state["error"]  # type: ignore[misc]
                queue.append(result)
                self._held += 1
                self._buffered_bytes += result.nbytes
                if self._held > self._peak_depth_gauge.value:
                    self._peak_depth_gauge.set(self._held)
                if self._buffered_bytes > self._peak_bytes_gauge.value:
                    self._peak_bytes_gauge.set(self._buffered_bytes)
                self._wake(which="feed" if fused else "data")
        except Interrupt:
            if not state["abort"]:
                raise
        finally:
            state["produced"] = True
            self._wake(which="feed")
            if not fused:
                state["analyzed"] = True
                self._wake(which="data")

    def _analyze(
        self,
        analyze_window: Callable[[WindowResult], Generator],
        pending: Deque[WindowResult],
        ready: Deque[WindowResult],
        state: Dict[str, object],
    ) -> Generator:
        """Process: run the fused in-situ pass on each buffered window.

        Sits between producer and consumer so a window's decoded
        coordinates are analyzed exactly once, before its buffers are
        released; the window stays *held* (for backpressure accounting)
        until dispatch completes.
        """
        counters = self._metric_fields
        try:
            while True:
                if state["abort"]:
                    return
                if not pending:
                    if state["produced"]:
                        return
                    event = self.sim.event()
                    self._feed_event = event
                    yield event
                    continue
                result = pending.popleft()
                t0 = self.sim.now
                try:
                    yield from analyze_window(result)
                except BaseException as exc:
                    if not (isinstance(exc, Interrupt) and state["abort"]):
                        state["error"] = exc
                    raise
                finally:
                    counters["analysis_seconds"].inc(self.sim.now - t0)
                ready.append(result)
                self._wake(which="data")
        except Interrupt:
            if not state["abort"]:
                raise
        finally:
            state["analyzed"] = True
            self._wake(which="data")
            self._wake(which="space")

    def _consume(
        self,
        dispatch_window: Callable[[WindowResult], Generator],
        ready: Deque[WindowResult],
        state: Dict[str, object],
        records: List[list],
    ) -> Generator:
        """Process: drain windows in arrival order, dispatching each."""
        counters = self._metric_fields
        try:
            while True:
                if state["abort"]:
                    return
                if not ready:
                    if state["analyzed"]:
                        return
                    event = self.sim.event()
                    self._data_event = event
                    yield event
                    continue
                result = ready.popleft()
                t0 = self.sim.now
                try:
                    recs = yield from dispatch_window(result)
                except BaseException as exc:
                    if not (isinstance(exc, Interrupt) and state["abort"]):
                        state["error"] = exc
                    raise
                finally:
                    counters["dispatch_seconds"].inc(self.sim.now - t0)
                    self._held -= 1
                    self._buffered_bytes -= result.nbytes
                    self._wake(which="space")
                records.append(recs)
                counters["windows"].inc()
        except Interrupt:
            if not state["abort"]:
                raise

    # -- internals ----------------------------------------------------------

    def _abort(
        self,
        procs: List[Process],
        windows: Iterable[WindowResult],
        queues: Iterable[Deque[WindowResult]],
        state: Dict[str, object],
    ) -> None:
        """Tear down a failed or abandoned run without leaking buffers.

        Called when the stage barrier raises -- a stage failed, or the
        driving generator was abandoned mid-stream (``close()`` /
        ``GeneratorExit``).  Marks the run aborted so the stage loops
        exit cleanly at their next resume, interrupts the still-alive
        stages, closes the window iterator (releasing the decoder), and
        returns every queued window's accounting, so this (shared)
        pipeline and its ``ingest_queue_depth`` / ``ingest_buffered_bytes``
        gauges are clean for the next stream.
        """
        state["abort"] = True
        self._close_windows(windows)
        for proc in procs:
            if proc.is_alive:
                proc.interrupt("ingest aborted")
        for queue in queues:
            while queue:
                result = queue.popleft()
                self._held -= 1
                self._buffered_bytes -= result.nbytes
        self._space_event = None
        self._feed_event = None
        self._data_event = None

    @staticmethod
    def _close_windows(windows: Iterable[WindowResult]) -> None:
        close = getattr(windows, "close", None)
        if close is not None:
            close()

    def _admits(self, result: WindowResult) -> bool:
        """May one more window enter the write-behind buffer?

        An empty buffer always admits (no-deadlock invariant); otherwise
        both the depth bound and the byte watermark must hold.
        """
        if self._held == 0:
            return True
        if self._held >= self.config.depth:
            return False
        limit = self.config.max_buffered_bytes
        return limit is None or self._buffered_bytes + result.nbytes <= limit

    def _wake(self, which: str) -> None:
        if which == "space":
            event, self._space_event = self._space_event, None
        elif which == "feed":
            event, self._feed_event = self._feed_event, None
        else:
            event, self._data_event = self._data_event, None
        if event is not None and not event.triggered:
            event.succeed()

    @property
    def overlap_ratio(self) -> float:
        """Fraction of the *overlappable* work that actually overlapped in
        the last run: with CPU time C, analysis time A, dispatch time D,
        and wall time W, overlap is ``C + A + D - W`` and the achievable
        maximum is ``C + A + D - max(C, A, D)`` (with no analysis stage
        this reduces to the two-stage ``min(C, D)``).  Serial runs report
        0."""
        cpu, ana, io = (
            self._metric_fields[f"{stage}_seconds"].value
            for stage in ("cpu", "analysis", "dispatch")
        )
        bound = cpu + ana + io - max(cpu, ana, io)
        if bound <= 0:
            return 0.0
        return min(1.0, max(0.0, cpu + ana + io - self.last_elapsed_s) / bound)

"""The streaming ingest pipeline: windowed pre-processing overlapped with
write-behind dispatch and (optionally) fused in-situ analysis.

The monolithic ingest path (:meth:`ADA.ingest`) decompresses and
categorizes the *entire* arriving trajectory on the storage CPU, then
dispatches every subset -- peak memory is the whole raw dataset and the
backends sit idle while the CPU works (and vice versa).  This module
pipelines the windows instead:

* the **driver** (:meth:`IngestPipeline.run`) pulls GOF-aligned windows
  from :meth:`DataPreProcessor.process_windows` and pays each window's
  storage-CPU charge, in order;
* each charged window then gets **one process**, chained to the window
  before it: it runs the optional fused in-situ analysis hook on the
  window's decoded coordinates once window *k-1* has analyzed (the online
  operators see every frame exactly once, before the window's buffers are
  released), then dispatches the window's subsets as coalesced chunk runs
  (:meth:`IODispatcher.dispatch_run`) once window *k-1* has dispatched.

Because the storage CPU, the analysis slot, and the backend devices are
independent simulated resources, window *k*'s categorize/encode overlaps
window *k-1*'s analysis which overlaps window *k-2*'s device writes.  A
window is *held* from its charge to the end of its dispatch; at most
``depth`` windows (and, optionally, ``max_buffered_bytes``) are held, so
peak buffered memory is O(window x depth), not O(raw dataset).  Windows
dispatch in order, so a full buffer *backpressures* the driver on the
oldest held window's process -- which is how a slow tier throttles a fast
simulation stream.  An empty buffer always admits one window, so a single
oversized window can never deadlock the pipeline.  ``pipelined=False``
waits for each window's process before charging the next.

Determinism: each window's tags go out sorted and windows dispatch in
arrival order, so chunk numbering -- and therefore every stored path,
CRC, and index record -- is identical under every schedule, with or
without an analysis stage.  The pipeline only moves *when* bytes hit the
backends, never *which* bytes.

Failure and abandonment: a window process never raises (a failed process
nobody waits on would surface out of ``sim.run``); it returns the
exception it, or a window before it, failed with, and the driver raises
it.  A failed or abandoned run (``close()`` / ``GeneratorExit`` on the
driving generator) goes through :meth:`IngestPipeline._abort`: the window
iterator is closed and every held window is interrupted and released at
once, so a shared pipeline (and its ``ingest_buffered_bytes`` gauge) is
clean for the next stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.core.preprocessor import WindowResult
from repro.errors import ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.sim import Event, Process, Simulator

__all__ = ["IngestPipeline", "IngestPipelineConfig"]

#: Frames per ingest window when the caller does not choose (compressed
#: streams round up to whole GOFs, so the effective window may be larger).
DEFAULT_WINDOW_FRAMES = 64


@dataclass(frozen=True)
class IngestPipelineConfig:
    """Tuning knobs for the streaming ingest path.

    ``depth`` bounds how many pre-processed windows may be held (charged
    but not yet dispatched) at once; ``max_buffered_bytes`` adds a byte
    watermark on top.  ``pipelined=False`` runs the identical windowed
    schedule with no overlap and no coalescing -- the serial baseline the
    ``bench-ingest`` harness measures against.
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


#: A run's held windows, oldest first: window index -> (process, bytes).
Held = Dict[int, Tuple[Process, int]]


def _settled(event: Optional[Event]) -> Generator:
    """Process: wait for a window's process or analysis event (no hop if it
    has fired), then raise the exception it carries, if any."""
    if event is not None:
        if not event.triggered:
            yield event
        if event.value is not None:
            raise event.value


class IngestPipeline:
    """Per-window overlap of CPU work, in-situ analysis, and dispatch.

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
            ),  # driver stalls on a full buffer
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
        #: Windows currently held: charged, not yet dispatched.
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
        self.last_elapsed_s = 0.0
        #: Simulated CPU, analysis and dispatch seconds of the last run.
        self.last_stage_s = (0.0, 0.0, 0.0)

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
        stages = [
            counters[f"{s}_seconds"] for s in ("cpu", "analysis", "dispatch")
        ]
        stages_before = [stage.value for stage in stages]
        held: Held = {}
        last: Optional[Process] = None
        analyzed: Optional[Event] = None
        try:
            for result in windows:
                t0 = self.sim.now
                yield from cpu_charge(result.raw_nbytes)
                counters["cpu_seconds"].inc(self.sim.now - t0)
                if last is not None and last.value is not None:
                    raise last.value  # the chain failed: stop charging
                while not self._admits(held, result):
                    oldest = next(iter(held.values()))[0]
                    counters["backpressure_waits"].inc()
                    with span(
                        self.sim, "ingest.backpressure",
                        window=result.index, depth=self._held,
                        buffered=self._buffered_bytes,
                    ):
                        t0 = self.sim.now
                        yield from _settled(oldest)
                        counters["backpressure_seconds"].inc(self.sim.now - t0)
                self._held += 1
                self._buffered_bytes += result.nbytes
                if self._held > self._peak_depth_gauge.value:
                    self._peak_depth_gauge.set(self._held)
                if self._buffered_bytes > self._peak_bytes_gauge.value:
                    self._peak_bytes_gauge.set(self._buffered_bytes)
                done = None if analyze_window is None else self.sim.event()
                last = self.sim.process(
                    self._window(
                        result, last, analyzed, done, held, records,
                        dispatch_window, analyze_window,
                    ),
                    name=f"ingest:window{result.index}",
                )
                held[result.index] = (last, result.nbytes)
                analyzed = done
                if not self.config.pipelined:
                    yield from _settled(last)
            yield from _settled(last)
        except BaseException:
            self._abort(held, windows)
            raise
        finally:
            self.last_elapsed_s = self.sim.now - started
            self.last_stage_s = tuple(
                stage.value - before
                for stage, before in zip(stages, stages_before)
            )
        return records

    def _window(
        self,
        result: WindowResult,
        prev: Optional[Process],
        prev_analyzed: Optional[Event],
        analyzed: Optional[Event],
        held: Held,
        records: List[list],
        dispatch_window: Callable[[WindowResult], Generator],
        analyze_window: Optional[Callable[[WindowResult], Generator]],
    ) -> Generator:
        """Process: one held window -- analyzed after window *k-1* has
        analyzed (``analyzed`` then fires), dispatched after window *k-1*'s
        process has finished.  Returns ``None``, or the exception the
        window or one before it failed with."""
        counters = self._metric_fields
        try:
            if analyzed is not None:
                try:
                    yield from _settled(prev_analyzed)
                    t0 = self.sim.now
                    try:
                        yield from analyze_window(result)
                    finally:
                        counters["analysis_seconds"].inc(self.sim.now - t0)
                except Exception as exc:
                    analyzed.succeed(exc)
                    raise
                analyzed.succeed()
            yield from _settled(prev)
            t0 = self.sim.now
            try:
                records.append((yield from dispatch_window(result)))
            finally:
                counters["dispatch_seconds"].inc(self.sim.now - t0)
            counters["windows"].inc()
        except Exception as exc:  # the driver raises it
            return exc
        finally:
            # Absent once ``_abort`` has released it.
            if held.pop(result.index, None) is not None:
                self._held -= 1
                self._buffered_bytes -= result.nbytes
        return None

    # -- internals ----------------------------------------------------------

    def _abort(self, held: Held, windows: Iterable[WindowResult]) -> None:
        """Tear down a failed or abandoned run without leaking buffers.

        Called when the driver raises -- a window failed, or the driving
        generator was abandoned mid-stream (``close()`` /
        ``GeneratorExit``).  Closes the window iterator (releasing the
        decoder), interrupts every held window's process and returns its
        accounting now, so this (shared) pipeline and its
        ``ingest_queue_depth`` / ``ingest_buffered_bytes`` gauges are
        clean for the next stream.
        """
        close = getattr(windows, "close", None)
        if close is not None:
            close()
        for proc, nbytes in held.values():
            proc.interrupt("ingest aborted")
            self._held -= 1
            self._buffered_bytes -= nbytes
        held.clear()

    def _admits(self, held: Held, result: WindowResult) -> bool:
        """May the run hold one more window?

        A run holding nothing always admits (no-deadlock invariant);
        otherwise both the depth bound and the byte watermark must hold.
        """
        if not held:
            return True
        if len(held) >= self.config.depth:
            return False
        limit = self.config.max_buffered_bytes
        return limit is None or (
            sum(nbytes for _, nbytes in held.values()) + result.nbytes <= limit
        )

    @property
    def overlap_ratio(self) -> float:
        """Fraction of the *overlappable* work that actually overlapped in
        the last run: with CPU time C, analysis time A, dispatch time D,
        and wall time W, overlap is ``C + A + D - W`` and the achievable
        maximum is ``C + A + D - max(C, A, D)`` (with no analysis stage
        this reduces to the two-stage ``min(C, D)``).  Serial runs report
        0."""
        cpu, ana, io = self.last_stage_s
        bound = cpu + ana + io - max(cpu, ana, io)
        if bound <= 0:
            return 0.0
        return min(1.0, max(0.0, cpu + ana + io - self.last_elapsed_s) / bound)

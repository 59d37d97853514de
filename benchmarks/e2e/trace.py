"""Host-clock spans around the layers' public entry points.

The program already emits *simulated*-clock spans (``repro.obs.Tracer``);
this module adds the other clock without touching ``src/``.  At run time
:func:`HostTracer.install` replaces each entry point listed in
:data:`TARGETS` with a wrapper that times it with ``perf_counter``:

* plain callables are timed per call;
* generator entry points (DES processes) are timed per *resume*, so the
  time a process spends parked on an event is nobody's host time;
* every generator handed to ``Simulator.process`` is wrapped too, its
  layer taken from the file that defines it -- so ``sim`` self time is
  the event loop itself, not whatever generator it happened to resume.

The interpreter is single-threaded here, so spans nest strictly and a
layer's **self time** is its spans' duration minus their direct
children's.  Wrapping costs host time of its own;
:meth:`HostTracer.calibrate` measures that cost on a no-op and
:class:`Profile` subtracts it (``compensated``), which is what keeps
thousands of tiny ``obs`` calls from looking like the bottleneck just
because they were observed.

Spans are kept in memory (the first :data:`MAX_SPANS`; all of them are
aggregated) and written at exit as Chrome-trace JSON -- open it at
https://ui.perfetto.dev.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["HostTracer", "Profile", "TARGETS", "layer_of_module"]

#: Recorded spans beyond this many are aggregated but not kept.
MAX_SPANS = 100_000

#: Packages whose modules are one layer each; everything else under
#: ``repro`` is layered by its first two components (``core.retriever``).
_FLAT = ("sim", "obs", "serve", "storage", "faults")


def layer_of_module(module: str) -> str:
    """``repro.core.retriever`` -> ``core.retriever``; ``repro.sim.engine``
    -> ``sim``."""
    parts = module.split(".")
    if parts[1] in _FLAT:
        return parts[1]
    return ".".join(parts[1:3])


def _nframes(args, result):
    return result.nframes


def _arg_nframes(args, result):
    return args[0].nframes


def _nbytes(args, result):
    return result.nbytes


def _consume_frames(args, result):
    return args[2] - args[1]  # consume(self, start, stop, coords)


def _slab_frames(args, result):
    return len(args[1])  # update(self, coords)


def _run_chunks(args, result):
    return len(args[1])  # read_chunk_run(self, records, ...)


def _write_chunks(args, result):
    return len(args[2])  # write_chunk_run(self, logical, entries, ...)


#: ``(module, attribute path, kind, extras)``.  ``kind`` is ``fn`` (timed
#: per call), ``gen`` (a generator function, timed per resume) or ``iter``
#: (returns a plain iterator, timed per ``next``).  Extras: ``layer``
#: overrides the module-derived layer, ``units`` counts work items from
#: ``(args, result)`` (frames, bytes, chunks) for the per-item metrics,
#: ``stamp``/``op_arg`` carry the driver's op id across the scheduler's
#: queue (the request object is stamped on submit and read on execute).
TARGETS: List[Tuple[str, str, str, dict]] = [
    # -- sim: the event loop and the calls that feed its heap ------------
    ("repro.sim.engine", "Simulator.run", "fn", {}),
    ("repro.sim.engine", "Simulator.timeout", "fn", {}),
    ("repro.sim.engine", "Event.succeed", "fn", {}),
    ("repro.sim.engine", "Event.fail", "fn", {}),
    ("repro.sim.engine", "_Condition.__init__", "fn", {}),
    ("repro.sim.resources", "Resource.request", "fn", {}),
    ("repro.sim.resources", "Resource.release", "fn", {}),
    # -- obs: simulated-clock spans and the metrics registry -------------
    ("repro.obs.trace", "span", "fn", {}),
    ("repro.obs.trace", "Tracer.span", "fn", {}),
    ("repro.obs.trace", "Tracer.current", "fn", {}),
    ("repro.obs.trace", "_SpanContext.__exit__", "fn", {}),
    ("repro.obs.trace", "Span.tag", "fn", {}),
    ("repro.obs.metrics", "Counter.inc", "fn", {}),
    ("repro.obs.metrics", "Histogram.observe", "fn", {}),
    ("repro.obs.metrics", "MetricsRegistry._get", "fn", {}),
    # -- serve ------------------------------------------------------------
    ("repro.serve.front", "ServeFront.submit", "fn", {"stamp": True}),
    ("repro.serve.scheduler", "RequestScheduler._execute", "gen",
     {"op_arg": 1}),
    ("repro.serve.session", "Session.fetch_chunks", "gen", {}),
    ("repro.serve.session", "Session.ingest_stream", "gen", {}),
    ("repro.serve.fairshare", "TenantBlockCache.lookup", "gen",
     {"layer": "fs.cache"}),
    ("repro.serve.fairshare", "TenantBlockCache.admit", "fn",
     {"layer": "fs.cache"}),
    # -- cluster ----------------------------------------------------------
    ("repro.cluster.shard", "ShardedADA.fetch", "gen", {}),
    ("repro.cluster.shard", "ShardedADA.fetch_chunks", "gen", {}),
    ("repro.cluster.shard", "ShardedADA.fetch_merged", "gen", {}),
    ("repro.cluster.shard", "ShardedADA.ingest", "gen", {}),
    ("repro.cluster.shard", "ShardedADA.ingest_append", "gen", {}),
    ("repro.cluster.shard", "ShardedADA.ingest_stream", "gen", {}),
    # -- core -------------------------------------------------------------
    ("repro.core.middleware", "ADA.fetch", "gen", {}),
    ("repro.core.middleware", "ADA.fetch_chunks", "gen", {}),
    ("repro.core.middleware", "ADA.fetch_merged", "gen", {}),
    ("repro.core.middleware", "ADA.ingest", "gen", {}),
    ("repro.core.middleware", "ADA.ingest_append", "gen", {}),
    ("repro.core.middleware", "ADA.ingest_stream", "gen", {}),
    ("repro.core.determinator", "IODeterminator.store", "gen", {}),
    ("repro.core.determinator", "IODeterminator.store_run", "gen", {}),
    ("repro.core.determinator", "IODeterminator.fetch", "gen", {}),
    ("repro.core.indexer", "Indexer.lookup", "gen", {}),
    ("repro.core.indexer", "Indexer.lookup_all", "gen", {}),
    ("repro.core.dispatcher", "IODispatcher.dispatch", "gen", {}),
    ("repro.core.dispatcher", "IODispatcher.dispatch_run", "gen", {}),
    ("repro.core.retriever", "IORetriever.retrieve", "gen", {}),
    ("repro.core.retriever", "IORetriever.retrieve_chunks", "gen", {}),
    ("repro.core.retriever", "IORetriever.prefetch_chunks", "gen", {}),
    ("repro.core.prefetch", "Prefetcher.observe", "fn", {}),
    ("repro.core.preprocessor", "DataPreProcessor.process", "fn", {}),
    ("repro.core.preprocessor", "DataPreProcessor.process_chunk", "fn", {}),
    ("repro.core.preprocessor", "DataPreProcessor.analyze_structure", "fn",
     {}),
    ("repro.core.preprocessor", "DataPreProcessor.process_windows", "iter",
     {}),
    ("repro.core.ingest", "IngestPipeline.run", "gen", {}),
    ("repro.faults.retry", "Retrier.call", "gen", {}),
    # -- fs / storage -----------------------------------------------------
    ("repro.fs.cache", "BlockCache.lookup", "gen", {}),
    ("repro.fs.cache", "BlockCache.admit", "fn", {}),
    ("repro.fs.cache", "BlockCache.invalidate", "fn", {}),
    ("repro.fs.cache", "BlockCache.pressure", "fn", {}),
    ("repro.fs.plfs", "PLFS.read_chunk_run", "gen", {"units": _run_chunks}),
    ("repro.fs.plfs", "PLFS.write_chunk_run", "gen",
     {"units": _write_chunks}),
    ("repro.fs.plfs", "PLFS.subset_records", "fn", {}),
    ("repro.fs.localfs", "LocalFS.read", "gen", {}),
    ("repro.fs.localfs", "LocalFS.read_span", "gen", {}),
    ("repro.fs.localfs", "LocalFS.write", "gen", {}),
    ("repro.fs.localfs", "LocalFS.write_span", "gen", {}),
    ("repro.storage.device", "Device.read", "gen", {}),
    ("repro.storage.device", "Device.write", "gen", {}),
    # -- formats ----------------------------------------------------------
    ("repro.formats.xtc", "encode_xtc", "fn", {"units": _arg_nframes}),
    ("repro.formats.xtc", "decode_xtc", "fn", {"units": _nframes}),
    ("repro.formats.xtc", "decode_frame_range", "fn", {"units": _nframes}),
    ("repro.formats.xtc", "FrameIndex.build", "fn", {}),
    ("repro.formats.xtc", "encode_raw", "fn", {"layer": "formats.raw"}),
    ("repro.formats.xtc", "decode_raw", "fn",
     {"layer": "formats.raw", "units": _nbytes}),
    ("repro.formats.codecexec", "CodecPool.run", "fn", {}),
    # -- vmd --------------------------------------------------------------
    ("repro.vmd.session", "VMDSession.mol_new", "fn", {}),
    ("repro.vmd.session", "VMDSession.mol_addfile_tag", "fn", {}),
    ("repro.vmd.loader", "TrajectoryLoader.load_subset", "fn", {}),
    ("repro.vmd.molecule", "Molecule.add_frames", "fn", {}),
    ("repro.vmd.streaming", "StreamingTrajectory.__init__", "fn", {}),
    ("repro.vmd.streaming", "StreamingTrajectory.frame", "fn", {}),
    ("repro.vmd.render", "GeometryBuilder.__init__", "fn", {}),
    ("repro.vmd.render", "GeometryBuilder.render_frame", "fn", {}),
    ("repro.vmd.animation", "Animator.goto", "fn", {}),
    # -- analysis ---------------------------------------------------------
    ("repro.analysis.online", "InSituAnalysis.consume", "fn",
     {"units": _consume_frames}),
    ("repro.analysis.online", "InSituAnalysis.results", "fn", {}),
    ("repro.analysis.online", "OnlineRMSD.update", "fn",
     {"units": _slab_frames}),
    ("repro.analysis.online", "OnlineContacts.update", "fn",
     {"units": _slab_frames}),
    ("repro.analysis.online", "OnlineObservables.update", "fn",
     {"units": _slab_frames}),
    ("repro.analysis.online", "OnlineStats.add", "fn", {}),
]

_OP_STAMP = "_bench_op"


class HostTracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        # Per span *kind* (one wrapped entry point), indexed by key.
        self.names: List[str] = []
        self.layers: List[str] = []
        self.gen_kind: List[bool] = []
        self.calls: List[int] = []
        self.incl_s: List[float] = []
        self.self_s: List[float] = []
        self.units: List[float] = []
        # Direct children of each kind's spans, split by the child's kind
        # (plain call vs generator resume) for overhead compensation.
        self.child_fn: List[int] = []
        self.child_gen: List[int] = []
        #: ``(key, start, end, span id, parent id, op)`` of recorded spans.
        self.spans: List[tuple] = []
        self.spans_total = 0
        self.recording = False
        # The open-span stack: frames are ``[child seconds, key, span id]``.
        self._root_frame = [0.0, -1, 0]
        self._stack: List[list] = [self._root_frame]
        # Per-DES-process op context (inherited at spawn, like trace ctx).
        self._ctx: List[Optional[int]] = [None]
        self._installed: List[Tuple[object, str, object]] = []
        self._code_keys: Dict[object, int] = {}
        self._repro_root: Optional[str] = None
        self._bench_root = os.path.dirname(os.path.abspath(__file__))
        # Wrapper overhead per span, (inside the timestamps, outside).
        self.overhead_fn = (0.0, 0.0)
        self.overhead_gen = (0.0, 0.0)
        self.slice_key = self._key("slice", "driver", False)

    # -- span kinds ---------------------------------------------------------

    def _key(self, name: str, layer: str, is_gen: bool) -> int:
        self.names.append(name)
        self.layers.append(layer)
        self.gen_kind.append(is_gen)
        for column in (self.calls, self.child_fn, self.child_gen):
            column.append(0)
        for column in (self.incl_s, self.self_s, self.units):
            column.append(0.0)
        return len(self.names) - 1

    # -- the two span brackets every wrapper shares -------------------------

    def _enter(self, key: int) -> list:
        self.spans_total += 1
        frame = [0.0, key, self.spans_total]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, t0: float, t1: float) -> None:
        stack = self._stack
        stack.pop()
        key = frame[1]
        dur = t1 - t0
        self.calls[key] += 1
        self.incl_s[key] += dur
        self.self_s[key] += dur - frame[0]
        parent = stack[-1]
        parent[0] += dur
        pkey = parent[1]
        if pkey >= 0:
            if self.gen_kind[key]:
                self.child_gen[pkey] += 1
            else:
                self.child_fn[pkey] += 1
        if self.recording and len(self.spans) < MAX_SPANS:
            self.spans.append(
                (key, t0, t1, frame[2], parent[2], self._ctx[0])
            )

    # -- wrappers -------------------------------------------------------------

    def wrap_fn(self, fn: Callable, key: int, units=None, stamp=False):
        enter, leave = self._enter, self._exit
        unit_col = self.units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(key)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame, t0, perf_counter())
            if units is not None:
                unit_col[key] += units(args, result)
            if stamp:
                setattr(result, _OP_STAMP, self._ctx[0])
            return result

        return traced

    def _resumes(self, gen, key: int, ctx: Optional[list], on_done=None):
        """Drive ``gen``, opening one span per resume.

        ``ctx`` (processes only) is the op context made current while the
        generator runs, so spans in this process carry the op of whoever
        spawned it.
        """
        enter, leave = self._enter, self._exit
        send, throw = gen.send, gen.throw
        value, error = None, None
        try:
            while True:
                if ctx is not None:
                    previous, self._ctx = self._ctx, ctx
                frame = enter(key)
                t0 = perf_counter()
                try:
                    if error is None:
                        target = send(value)
                    else:
                        pending, error = error, None
                        target = throw(pending)
                except StopIteration as stop:
                    if on_done is not None:
                        on_done(stop.value)
                    return stop.value
                finally:
                    leave(frame, t0, perf_counter())
                    if ctx is not None:
                        self._ctx = previous
                try:
                    value = yield target
                except GeneratorExit:
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded
                    error = exc
        finally:
            gen.close()

    def wrap_gen(self, fn: Callable, key: int, units=None, op_arg=None):
        unit_col = self.units

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            on_done = None
            if units is not None:
                def on_done(result):
                    unit_col[key] += units(args, result)
            gen = fn(*args, **kwargs)
            if op_arg is not None:
                # The scheduler runs a request in a process of its own;
                # give it the op the submitter stamped on the request.
                ctx = [getattr(args[op_arg], _OP_STAMP, None)]
                return self._resumes(gen, key, ctx, on_done)
            return self._resumes(gen, key, None, on_done)

        return traced

    def wrap_iter(self, fn: Callable, key: int):
        enter, leave = self._enter, self._exit
        unit_col = self.units

        def items(iterator):
            try:
                while True:
                    frame = enter(key)
                    t0 = perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        leave(frame, t0, perf_counter())
                    unit_col[key] += 1
                    yield item
            finally:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return items(iter(fn(*args, **kwargs)))

        return traced

    def _process_wrapper(self, original: Callable):
        """``Simulator.process`` replacement: time every process's resumes
        under the layer of the file that defines its generator."""
        resumes_code = self._resumes.__code__
        sim_key = self._key("Simulator.process", "sim", False)
        enter, leave = self._enter, self._exit

        def process(sim, generator, name=None):
            code = getattr(generator, "gi_code", None)
            if code is resumes_code:
                # Already an entry-point wrapper; wrapping it again still
                # buys the per-process op context.
                key = self._inner_key
            elif code is not None:
                key = self._code_keys.get(code)
                if key is None:
                    key = self._code_key(code)
            if code is not None:
                generator = self._resumes(generator, key, [self._ctx[0]])
            frame = enter(sim_key)
            t0 = perf_counter()
            try:
                return original(sim, generator, name)
            finally:
                leave(frame, t0, perf_counter())

        return process

    def _code_key(self, code) -> int:
        filename = os.path.abspath(code.co_filename)
        if filename.startswith(self._bench_root + os.sep):
            layer = "driver"
        elif self._repro_root and filename.startswith(self._repro_root):
            rel = filename[len(self._repro_root):-len(".py")]
            layer = layer_of_module("repro." + rel.replace(os.sep, "."))
        else:
            layer = "other"
        name = "proc:" + getattr(code, "co_qualname", code.co_name)
        key = self._key(name, layer, True)
        self._code_keys[code] = key
        return key

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch every target; undo with :meth:`uninstall`."""
        import repro

        self._repro_root = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
        self._inner_key = self._key("proc:entry-point", "driver", True)
        for module_name, path, kind, extras in TARGETS:
            module = importlib.import_module(module_name)
            owner, attr = module, path
            if "." in path:
                owner_name, attr = path.split(".", 1)
                owner = getattr(module, owner_name)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            rebind = None
            if isinstance(original, (classmethod, staticmethod)):
                rebind = type(original)
                original = original.__func__
            layer = extras.get("layer") or layer_of_module(module_name)
            key = self._key(path, layer, kind == "gen")
            if kind == "fn":
                wrapper = self.wrap_fn(
                    original, key, extras.get("units"), extras.get("stamp", False)
                )
            elif kind == "gen":
                wrapper = self.wrap_gen(
                    original, key, extras.get("units"), extras.get("op_arg")
                )
            else:
                wrapper = self.wrap_iter(original, key)
            if isinstance(owner, type):
                self._set(owner, attr, rebind(wrapper) if rebind else wrapper)
            else:
                self._replace_everywhere(original, wrapper)
        # span_tenant_source builds the closure the cache and prefetcher
        # call per admission; time the closure, not the factory.
        fairshare = importlib.import_module("repro.serve.fairshare")
        factory = fairshare.span_tenant_source
        source_key = self._key("span_tenant_source.current", "serve", False)

        def traced_factory(sim):
            return self.wrap_fn(factory(sim), source_key)

        self._replace_everywhere(factory, traced_factory)
        engine = importlib.import_module("repro.sim.engine")
        self._set(
            engine.Simulator, "process",
            self._process_wrapper(engine.Simulator.__dict__["process"]),
        )

    def _set(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Module-level functions are imported by name (and kept in
        module-level tables); swap every reference inside ``repro``."""
        for name, module in list(sys.modules.items()):
            if module is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for k, v in list(value.items()):
                        if v is original:
                            self._installed.append((value, k, v))
                            value[k] = wrapper

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    # -- driver-facing API --------------------------------------------------------

    def set_op(self, op: Optional[int]) -> None:
        """Name the op the current DES process is working on."""
        self._ctx[0] = op

    def timed_slice(self, body: Callable[[], object]) -> float:
        """Run one measured slice under a root span; returns its seconds."""
        frame = self._enter(self.slice_key)
        t0 = perf_counter()
        try:
            body()
        finally:
            t1 = perf_counter()
            self._exit(frame, t0, t1)
        return t1 - t0

    def reset(self) -> None:
        """Forget everything measured so far (set-up is not the phase)."""
        for column in (self.calls, self.child_fn, self.child_gen):
            column[:] = [0] * len(column)
        for column in (self.incl_s, self.self_s, self.units):
            column[:] = [0.0] * len(column)
        self.spans.clear()
        self.spans_total = 0
        self._root_frame[0] = 0.0

    # -- overhead calibration --------------------------------------------------------

    def calibrate(self, rounds: int = 20_000) -> None:
        """Measure what one wrapped call / resume costs, on a no-op shaped
        like the real targets (a method with arguments; a generator that
        parks a few times)."""
        was_recording, self.recording = self.recording, False
        resumes = 4

        class Probe:
            def call(self, a, b=None):
                return None

            def process(self, a, b=None):
                for _ in range(resumes - 1):
                    yield None

        def drive(method):
            def run():
                for _ in method(probe, 1, b=2):
                    pass
            return run

        probe = Probe()
        fn_key = self._key("calibrate.fn", "driver", False)
        gen_key = self._key("calibrate.gen", "driver", True)
        traced_fn = self.wrap_fn(Probe.call, fn_key)
        traced_gen = self.wrap_gen(Probe.process, gen_key)

        def cost(call, key=None, per=1):
            best_total, best_inner = float("inf"), 0.0
            for _ in range(3):
                if key is not None:
                    self.self_s[key] = 0.0
                t0 = perf_counter()
                for _ in range(rounds):
                    call()
                total = (perf_counter() - t0) / (rounds * per)
                if total < best_total:
                    best_total = total
                    if key is not None:
                        best_inner = self.self_s[key] / (rounds * per)
            return best_total, best_inner

        raw_fn, _ = cost(lambda: Probe.call(probe, 1, b=2))
        wrapped_fn, inner_fn = cost(lambda: traced_fn(probe, 1, b=2), fn_key)
        raw_gen, _ = cost(drive(Probe.process), per=resumes)
        wrapped_gen, inner_gen = cost(drive(traced_gen), gen_key, per=resumes)
        inside = max(0.0, inner_fn - raw_fn)
        self.overhead_fn = (inside, max(0.0, wrapped_fn - raw_fn - inside))
        inside = max(0.0, inner_gen - raw_gen)
        self.overhead_gen = (inside, max(0.0, wrapped_gen - raw_gen - inside))
        self.reset()
        self.recording = was_recording

    def freeze(self) -> "Profile":
        """A copy of everything aggregated so far (the measured phase),
        immune to whatever runs under the wrappers afterwards."""
        return Profile(self)

    def write_chrome_trace(self, path: str) -> None:
        """Chrome-trace (``traceEvents``) JSON of the recorded spans."""
        base = self.spans[0][1] if self.spans else 0.0
        events = [
            {
                "name": self.names[key],
                "cat": self.layers[key],
                "ph": "X",
                "ts": round((t0 - base) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": span_id, "parent": parent_id, "op": op},
            }
            for key, t0, t1, span_id, parent_id, op in self.spans
        ]
        # Spans are appended at exit; viewers want start order.
        events.sort(key=lambda event: event["ts"])
        payload = {
            "displayTimeUnit": "ms",
            "otherData": {
                "clock": "host perf_counter",
                "spans_recorded": len(self.spans),
                "spans_total": self.spans_total,
            },
            "traceEvents": events,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(payload, handle)


class Profile:
    """Per-span-kind totals of one phase, and the reports made from them.

    Wrapper overhead is removed in two steps: the calibrated cost per
    wrapped call/resume says *where* overhead sits (inside a span's own
    timestamps, or in its parent's), and :meth:`scale_to` stretches those
    costs so the total removed equals what tracing was observed to add to
    the same phase (calibration on a no-op underestimates real calls).
    """

    def __init__(self, tracer: HostTracer):
        self.names = list(tracer.names)
        self.layers = list(tracer.layers)
        self.gen_kind = list(tracer.gen_kind)
        self.calls = list(tracer.calls)
        self.incl_s = list(tracer.incl_s)
        self.self_s = list(tracer.self_s)
        self.units = list(tracer.units)
        inside_fn, outside_fn = tracer.overhead_fn
        inside_gen, outside_gen = tracer.overhead_gen
        #: Calibrated wrapper seconds that landed in each kind's self time.
        self.overhead_s = [
            calls * (inside_gen if is_gen else inside_fn)
            + child_fn * outside_fn + child_gen * outside_gen
            for calls, is_gen, child_fn, child_gen in zip(
                self.calls, self.gen_kind, tracer.child_fn, tracer.child_gen
            )
        ]
        self.scale = 1.0

    @property
    def traced_s(self) -> float:
        return sum(self.self_s)

    def scale_to(self, reference_s: float) -> None:
        """Make the compensated total match the untraced phase."""
        overhead = sum(self.overhead_s)
        excess = self.traced_s - reference_s
        self.scale = max(0.0, excess / overhead) if overhead else 0.0

    def compensated_self(self, key: int) -> float:
        return max(0.0, self.self_s[key] - self.scale * self.overhead_s[key])

    def self_times(self) -> Dict[str, Dict[str, float]]:
        """Per layer: spans, raw and overhead-compensated self seconds."""
        table: Dict[str, Dict[str, float]] = {}
        for key, layer in enumerate(self.layers):
            if not self.calls[key]:
                continue
            row = table.setdefault(
                layer, {"spans": 0, "self_s": 0.0, "compensated_s": 0.0}
            )
            row["spans"] += self.calls[key]
            row["self_s"] += self.self_s[key]
            row["compensated_s"] += self.compensated_self(key)
        return table

    def by_name(self, name: str) -> Dict[str, float]:
        """Calls / inclusive seconds / compensated self seconds / units of
        the span kind(s) called ``name``."""
        out = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "units": 0.0}
        for key, candidate in enumerate(self.names):
            if candidate == name:
                out["calls"] += self.calls[key]
                out["incl_s"] += self.incl_s[key]
                out["self_s"] += self.compensated_self(key)
                out["units"] += self.units[key]
        return out

    def render_table(self) -> str:
        table = self.self_times()
        total = sum(row["compensated_s"] for row in table.values()) or 1.0
        lines = [
            f"{'layer':<22}{'spans':>10}{'self ms':>12}"
            f"{'compensated ms':>16}{'share':>8}"
        ]
        for layer, row in sorted(
            table.items(), key=lambda item: -item[1]["compensated_s"]
        ):
            lines.append(
                f"{layer:<22}{int(row['spans']):>10}"
                f"{row['self_s'] * 1e3:>12.2f}"
                f"{row['compensated_s'] * 1e3:>16.2f}"
                f"{row['compensated_s'] / total:>8.1%}"
            )
        return "\n".join(lines)

"""Codec execution layer: one persistent process pool + shared-memory buffers.

The XTC-like codec fans independent groups of frames (GOFs) out to
workers.  The per-frame Python driver holds the GIL for most of a GOF's
wall time, so only separate processes scale; a codec call that fans out
(``resolve_workers(workers, ntasks) > 1``) runs on a :class:`CodecPool`,
every other call runs the serial kernel in the caller.

A :class:`CodecPool` is a persistent
:class:`~concurrent.futures.ProcessPoolExecutor` fed through
:mod:`multiprocessing.shared_memory` frame buffers.  The parent creates
one segment per call; workers attach by name and fill **disjoint slices**
of the shared coordinate array (decode) or read disjoint frame runs out
of it (encode).  On decode the compressed runs ride in the same segment
after the coordinate region, so the only pickled payloads are small
argument tuples.  Decode results return zero-copy: the caller receives an
ndarray view over the segment and the mapping lives exactly as long as
that array.

Shared-memory ownership rules (enforced here, relied on by tests):

1. the parent creates and **unlinks** every segment -- on the success path
   immediately after the tasks drain (the mapping stays valid until the
   last view drops), on every failure path before the exception leaves
   this module;
2. workers attach by name and close their mapping before returning --
   including when the decode raises, which is why worker errors are
   re-raised as fresh :class:`CodecError` instances carrying no traceback
   frames that could pin buffer views.  The pool is pinned to the
   ``fork`` start method where available, so workers share the parent's
   ``resource_tracker`` and registration stays single-owner; on
   spawn-only platforms workers deregister their attach (3.9-3.12 track
   every attach, and a spawned child's own tracker would unlink early);
3. a crashed worker (``BrokenProcessPool``) triggers exactly one pool
   respawn + batch retry -- codec tasks are idempotent (decode rewrites
   the same slices; encode is pure) -- then fails typed.

Pool lifecycle is observable through the ambient
:class:`~repro.obs.metrics.MetricsRegistry`: spawns/spawn seconds,
restarts after crashes, closes, tasks, task failures, and shared-memory
segments/bytes/active count.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import threading
import time
import weakref
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CodecError
from repro.obs.metrics import TIME_BUCKETS, MetricsRegistry, global_registry

__all__ = [
    "CodecPool",
    "close_shared_pools",
    "partition_weighted",
    "probe_decode_overhead",
    "probe_encode_overhead",
    "process_decode",
    "process_encode",
    "shared_pool",
]

#: Fork start method where the platform offers it: workers inherit the
#: parent's resource tracker (single-owner segment registration) and the
#: parent's imported modules (no per-worker re-import cost).  ``None``
#: falls back to the platform default (spawn) -- see `_attach_segment`.
_FORK_CTX = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


def partition_weighted(
    weights: Sequence[float], parts: int
) -> List[Tuple[int, int]]:
    """Split ``range(len(weights))`` into <= ``parts`` contiguous chunks.

    Greedy balanced partition: each chunk takes items toward the remaining
    average, stopping *before* an item whose overshoot would exceed the
    current undershoot (so one giant item never drags its neighbours into
    the same chunk), always taking at least one and leaving at least one
    per remaining chunk.  Contiguity is what lets decode chunks map to
    contiguous frame rows (one shared-memory slice each) and encode chunks
    concatenate in stream order.  Deterministic in the weights alone.
    """
    n = len(weights)
    if n == 0:
        return []
    parts = max(1, min(int(parts), n))
    total = float(sum(weights))
    if total <= 0:
        weights = [1.0] * n
        total = float(n)
    spans: List[Tuple[int, int]] = []
    start = 0
    remaining = total
    for k in range(parts):
        left = parts - k
        if left == 1:
            spans.append((start, n))
            break
        target = remaining / left
        stop = start
        acc = 0.0
        while stop < n - (left - 1):
            w = float(weights[stop])
            if stop > start and acc + w > target and (
                (acc + w) - target > target - acc
            ):
                break
            acc += w
            stop += 1
            if acc >= target:
                break
        spans.append((start, stop))
        remaining -= acc
        start = stop
    return spans


class CodecPool:
    """A persistent pool of codec worker processes.

    Lazily spawns on first use, so constructing one costs nothing until a
    parallel call actually happens.  ``run`` submits one task per argument
    tuple and returns results in submission order; a crashed worker
    process restarts the pool and retries the batch once (codec tasks are
    idempotent) before failing typed.  ``close`` is idempotent, and a
    closed pool respawns transparently on the next ``run`` -- lifecycle
    is visible in the ``codec_pool_*`` metrics either way.
    """

    def __init__(
        self, workers: int, metrics: Optional[MetricsRegistry] = None
    ):
        self.workers = max(1, int(workers))
        self.metrics = metrics if metrics is not None else global_registry()
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.RLock()

    @property
    def closed(self) -> bool:
        return self._executor is None

    def _ensure(self):
        with self._lock:
            if self._executor is None:
                start = time.perf_counter()
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_FORK_CTX
                )
                self.metrics.counter("codec_pool_spawns_total").inc()
                self.metrics.histogram(
                    "codec_pool_spawn_seconds", bounds=TIME_BUCKETS
                ).observe(time.perf_counter() - start)
            return self._executor

    def _restart(self) -> None:
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
            self.metrics.counter("codec_pool_restarts_total").inc()

    def run(self, fn: Callable, tasks: Sequence[tuple]) -> list:
        """Run ``fn(*args)`` for every args tuple; results in task order."""
        tasks = list(tasks)
        if not tasks:
            return []
        last_exc: Optional[BaseException] = None
        for attempt in (0, 1):
            executor = self._ensure()
            try:
                futures = [executor.submit(fn, *args) for args in tasks]
            except (BrokenProcessPool, RuntimeError) as exc:
                # Pool already broken/shut down before submission finished.
                last_exc = exc
                self._restart()
                continue
            wait(futures)
            self.metrics.counter("codec_tasks_total").inc(len(tasks))
            broken = next(
                (
                    f.exception()
                    for f in futures
                    if isinstance(f.exception(), BrokenProcessPool)
                ),
                None,
            )
            if broken is not None:
                self.metrics.counter("codec_task_failures_total").inc()
                last_exc = broken
                if attempt == 0:
                    self._restart()
                    continue
                break
            results = []
            for future in futures:
                exc = future.exception()
                if exc is not None:
                    self.metrics.counter("codec_task_failures_total").inc()
                    raise exc
                results.append(future.result())
            return results
        raise CodecError(
            f"codec worker process died (pool restarted and retried once): "
            f"{last_exc}"
        ) from last_exc

    def close(self) -> None:
        """Shut the pool down (idempotent; it respawns on next use)."""
        with self._lock:
            if self._executor is not None:
                self._executor.shutdown(wait=True)
                self._executor = None
                self.metrics.counter("codec_pool_closes_total").inc()

    def __enter__(self) -> "CodecPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- the process-lifetime shared pool ------------------------------------------
#
# Codec calls without a long-lived owner (the Decompressor holds its own
# pool) share one pool for the life of the process, so a bare
# ``decode_xtc``/``encode_xtc`` never pays per-call pool construction.

_SHARED_LOCK = threading.Lock()
_SHARED: Optional[CodecPool] = None


def shared_pool(workers: int) -> CodecPool:
    """The process-lifetime pool, grown to >= ``workers``.

    Growing recreates the pool (executors cannot resize); shrinking never
    happens -- a larger pool serves smaller fan-outs fine, and task-count
    partitioning (not pool size) decides actual parallelism.
    """
    global _SHARED
    size = max(1, int(workers))
    with _SHARED_LOCK:
        if _SHARED is not None and _SHARED.workers < size:
            _SHARED.close()
            _SHARED = None
        if _SHARED is None:
            _SHARED = CodecPool(size)
        return _SHARED


def close_shared_pools() -> None:
    """Shut down the process-lifetime shared pool (idempotent)."""
    global _SHARED
    with _SHARED_LOCK:
        if _SHARED is not None:
            _SHARED.close()
            _SHARED = None


atexit.register(close_shared_pools)


# -- shared-memory segments ---------------------------------------------------

_SHM_SEQ = itertools.count()


def _create_segment(nbytes: int, metrics: MetricsRegistry):
    name = f"repro-codec-{os.getpid()}-{next(_SHM_SEQ)}"
    try:
        seg = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, int(nbytes))
        )
    except FileExistsError:  # stale name from a recycled pid: let the OS pick
        seg = shared_memory.SharedMemory(create=True, size=max(1, int(nbytes)))
    metrics.counter("codec_shm_segments_total").inc()
    metrics.counter("codec_shm_bytes_total").inc(int(nbytes))
    metrics.gauge("codec_shm_active").inc()
    return seg


def _attach_segment(name: str):
    seg = shared_memory.SharedMemory(name=name)
    if _FORK_CTX is None:
        try:
            # The parent owns unlink.  A spawned child has its *own*
            # resource tracker, which would also unlink the segment at
            # child exit (Python 3.9-3.12 track every attach) -- deregister
            # it.  Forked children share the parent's tracker, where the
            # attach registration is an idempotent no-op and deregistering
            # would instead erase the parent's record.
            from multiprocessing import resource_tracker

            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
    return seg


def _discard_segment(seg, metrics: MetricsRegistry) -> None:
    """Unlink + close a segment the parent no longer needs (failure paths)."""
    try:
        seg.unlink()
    except FileNotFoundError:
        pass
    seg.close()
    metrics.gauge("codec_shm_active").dec()


def _bind_segment_lifetime(
    array: np.ndarray, seg, metrics: MetricsRegistry
) -> None:
    """Tie the (already unlinked) segment's mapping to ``array``'s lifetime."""

    def _release(segment=seg, registry=metrics):
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views outlive the finalizer
            pass
        registry.gauge("codec_shm_active").dec()

    weakref.finalize(array, _release)


# -- worker task functions ----------------------------------------------------
#
# Module-level (picklable) and self-contained: each attaches the named
# segment, does its slice of work, drops every buffer view, and closes its
# mapping -- even on error, where the original exception is re-raised as a
# fresh CodecError so no foreign traceback frame can pin a view open.


def _decode_span_task(shm_name, shape, row0, keep_skip, blob_off, blob_nbytes):
    """Decode one GOF-aligned frame run into rows ``[row0, ...)`` of the
    shared float32 output array; returns the number of rows written.

    The compressed run itself also arrives through the segment (at byte
    ``blob_off``) rather than the task pickle: dispatch cost stays flat in
    the compressed size, one parent-side memcpy instead of a per-task
    pipe round trip.
    """
    from repro.formats import xtc

    seg = _attach_segment(shm_name)
    error: Optional[CodecError] = None
    count = 0
    out = None
    try:
        out = np.ndarray(shape, dtype=np.float32, buffer=seg.buf)
        # Private copy of this chunk's run: decode then touches the
        # segment only through its disjoint ``out`` rows.
        blob = bytes(seg.buf[blob_off : blob_off + blob_nbytes])
        infos = list(xtc.iter_frame_infos(blob))
        count = len(infos) - keep_skip
        xtc._decode_run(
            blob, infos, out[row0 : row0 + count], keep_from=keep_skip
        )
    except Exception as exc:
        if isinstance(exc, CodecError):
            error = CodecError(str(exc))
        else:
            error = CodecError(f"worker decode failed: {exc!r}")
    out = None
    seg.close()
    if error is not None:
        raise error
    return count


def _encode_span_task(
    shm_name, shape, lo, hi, steps_b, times_b, box9, precision, spans
):
    """Encode frames ``[lo, hi)`` read from the shared coordinate array as
    the given (run-relative) GOF spans; returns the serialized bytes."""
    from repro.formats import xtc
    from repro.formats.trajectory import Trajectory

    seg = _attach_segment(shm_name)
    error: Optional[CodecError] = None
    result = b""
    coords = traj = None
    try:
        coords = np.ndarray(shape, dtype=np.float32, buffer=seg.buf)
        traj = Trajectory(
            coords=coords[lo:hi],
            steps=np.frombuffer(steps_b, dtype=np.int64),
            times_ps=np.frombuffer(times_b, dtype=np.float64),
        )
        result = b"".join(
            xtc._encode_gof(traj, s, e, precision, box9) for s, e in spans
        )
    except Exception as exc:
        if isinstance(exc, CodecError):
            error = CodecError(str(exc))
        else:
            error = CodecError(f"worker encode failed: {exc!r}")
    coords = traj = None
    seg.close()
    if error is not None:
        raise error
    return result


def _noop_decode_task(shm_name, shape, row0, keep_skip, blob_off, blob_nbytes):
    """Overhead probe twin of :func:`_decode_span_task`: same pickled
    payload, same attach/close, no kernel work."""
    seg = _attach_segment(shm_name)
    seg.close()
    return 0


def _noop_encode_task(
    shm_name, shape, lo, hi, steps_b, times_b, box9, precision, spans
):
    """Overhead probe twin of :func:`_encode_span_task`."""
    seg = _attach_segment(shm_name)
    seg.close()
    return b""


# -- parent-side orchestration ------------------------------------------------


def _stage_decode_segment(
    data, infos, gofs, nworkers, shape, keep_from, metrics
):
    """Create the decode segment and build the task tuples.

    Segment layout is ``[float32 coords | compressed runs]``: the parent
    memcpys the covered byte range of ``data`` in once, and each task
    tuple carries only byte offsets into the blob region -- pickling cost
    stays flat in the compressed size.  Chunks are contiguous GOF spans
    balanced by compressed bytes (the dispatch weighting the projection
    model mirrors).
    """
    weights = [
        (infos[e - 1].offset + infos[e - 1].total_nbytes) - infos[s].offset
        for s, e in gofs
    ]
    chunks = []
    for clo, chi in partition_weighted(weights, nworkers):
        f_lo, f_hi = gofs[clo][0], gofs[chi - 1][1]
        b_lo = infos[f_lo].offset
        b_hi = infos[f_hi - 1].offset + infos[f_hi - 1].total_nbytes
        keep_skip = max(keep_from - f_lo, 0)
        row0 = max(f_lo, keep_from) - keep_from
        chunks.append((row0, keep_skip, b_lo, b_hi))
    base, end = chunks[0][2], chunks[-1][3]
    coords_nbytes = shape[0] * shape[1] * shape[2] * 4
    seg = _create_segment(coords_nbytes + (end - base), metrics)
    try:
        seg.buf[coords_nbytes : coords_nbytes + (end - base)] = memoryview(
            data
        )[base:end]
        tasks = [
            (
                seg.name,
                shape,
                row0,
                keep_skip,
                coords_nbytes + (b_lo - base),
                b_hi - b_lo,
            )
            for row0, keep_skip, b_lo, b_hi in chunks
        ]
    except BaseException:
        _discard_segment(seg, metrics)
        raise
    return seg, tasks


def process_decode(
    data,
    infos,
    gofs,
    pool: CodecPool,
    nworkers: int,
    keep_from: int = 0,
) -> np.ndarray:
    """Decode ``infos`` (keyframe-anchored, GOF spans ``gofs``) across the
    process pool into one shared coordinate array; returns it zero-copy.

    Frames before ``keep_from`` decode for prediction state only.  The
    returned float32 array is a view over the (already unlinked) segment;
    the mapping is released when the array is garbage collected.
    """
    metrics = pool.metrics
    nkept = len(infos) - keep_from
    shape = (nkept, infos[0].natoms, 3)
    seg, tasks = _stage_decode_segment(
        data, infos, gofs, nworkers, shape, keep_from, metrics
    )
    try:
        counts = pool.run(_decode_span_task, tasks)
        if sum(counts) != nkept:
            raise CodecError(
                f"parallel decode materialized {sum(counts)} frames, "
                f"expected {nkept}"
            )
    except BaseException:
        _discard_segment(seg, metrics)
        raise
    coords = np.ndarray(shape, dtype=np.float32, buffer=seg.buf)
    # Unlink now: the OS keeps the memory until the last mapping drops,
    # and the finalizer ties that mapping to ``coords``'s lifetime.
    seg.unlink()
    _bind_segment_lifetime(coords, seg, metrics)
    return coords


def _encode_tasks(trajectory, spans, box9, precision, nworkers, seg):
    weights = [e - s for s, e in spans]
    shape = None if seg is None else tuple(seg)
    tasks = []
    for clo, chi in partition_weighted(weights, nworkers):
        lo, hi = spans[clo][0], spans[chi - 1][1]
        rel = [(s - lo, e - lo) for s, e in spans[clo:chi]]
        tasks.append(
            (
                shape,
                lo,
                hi,
                trajectory.steps[lo:hi].astype(np.int64).tobytes(),
                trajectory.times_ps[lo:hi].astype(np.float64).tobytes(),
                box9,
                precision,
                rel,
            )
        )
    return tasks


def process_encode(
    trajectory,
    spans: Sequence[Tuple[int, int]],
    precision: float,
    box9: Tuple[float, ...],
    pool: CodecPool,
    nworkers: int,
) -> bytes:
    """Encode GOF ``spans`` of ``trajectory`` across the process pool.

    Coordinates are published once into a shared segment; workers read
    disjoint frame runs and return their serialized bytes, concatenated in
    stream order (bit-identical to a serial encode).
    """
    metrics = pool.metrics
    coords = np.ascontiguousarray(trajectory.coords, dtype=np.float32)
    seg = _create_segment(coords.nbytes, metrics)
    try:
        shared = np.ndarray(coords.shape, dtype=np.float32, buffer=seg.buf)
        np.copyto(shared, coords)
        shared = None
        tasks = [
            (seg.name,) + t
            for t in _encode_tasks(
                trajectory, spans, box9, precision, nworkers, coords.shape
            )
        ]
        parts = pool.run(_encode_span_task, tasks)
        return b"".join(parts)
    finally:
        _discard_segment(seg, metrics)


# -- dispatch-overhead probes (used by bench-codec's projection model) --------


def probe_decode_overhead(
    data, infos, gofs, pool: CodecPool, nworkers: int
) -> None:
    """One parallel-decode dispatch with the kernels stubbed out.

    Exercises everything *around* the decode work -- segment create, the
    parent-side memcpy of the compressed runs into the blob region, task
    pickling, pool round trip, worker attach/close, unlink -- so timing
    this call measures the per-dispatch overhead term of the
    critical-path projection.
    """
    metrics = pool.metrics
    shape = (len(infos), infos[0].natoms, 3)
    seg, tasks = _stage_decode_segment(
        data, infos, gofs, nworkers, shape, 0, metrics
    )
    try:
        pool.run(_noop_decode_task, tasks)
    finally:
        _discard_segment(seg, metrics)


def probe_encode_overhead(
    trajectory,
    spans: Sequence[Tuple[int, int]],
    precision: float,
    box9: Tuple[float, ...],
    pool: CodecPool,
    nworkers: int,
) -> None:
    """One parallel-encode dispatch with the kernels stubbed out (includes
    the parent-side copy of the coordinates into the shared segment)."""
    metrics = pool.metrics
    coords = np.ascontiguousarray(trajectory.coords, dtype=np.float32)
    seg = _create_segment(coords.nbytes, metrics)
    try:
        shared = np.ndarray(coords.shape, dtype=np.float32, buffer=seg.buf)
        np.copyto(shared, coords)
        shared = None
        tasks = [
            (seg.name,) + t
            for t in _encode_tasks(
                trajectory, spans, box9, precision, nworkers, coords.shape
            )
        ]
        pool.run(_noop_encode_task, tasks)
    finally:
        _discard_segment(seg, metrics)

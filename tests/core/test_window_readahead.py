"""Ingest read-ahead: ``DataPreProcessor.process_windows`` computes the
window its caller asks for on the caller's thread and, with at least two
usable CPUs, the next one on a read-ahead thread.

The usable-CPU count is patched, so every case runs on any host: one CPU
is the serial path, and more must reproduce it byte for byte, never read
ahead more than one window, raise a window's error only when that window
is consumed, leave nothing in flight after ``close()``, and keep every
codec entry point the host tracer wraps
(``benchmarks/e2e/trace.py::TARGETS``) on the caller's thread, because
that tracer keeps one span stack.
"""

import importlib
import sys
import threading
from concurrent.futures import Future, wait

import pytest

import repro.core.preprocessor as preprocessor_mod
from repro.core.categorizer import Categorizer
from repro.core.decompressor import Decompressor
from repro.core.lod import lod_tag
from repro.core.preprocessor import SUBSET_ENCODERS, DataPreProcessor
from repro.errors import CodecError
from repro.formats.dcd import encode_dcd
from repro.formats.trr import encode_trr
from repro.formats.xtc import FrameIndex, encode_raw, encode_xtc
from repro.workloads import build_workload

#: 32 frames in 4-frame GOFs: eight 4-frame windows.
NFRAMES, GOF, WINDOW = 32, 4, 4


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        natoms=300, nframes=NFRAMES, seed=11, keyframe_interval=GOF
    )


def _cpus(monkeypatch, cpus, eager=False):
    """Patch the usable-CPU count.  ``eager``: each read-ahead window is
    finished on the pool's thread before ``submit`` returns, so that thread
    computes every window it is handed however the host schedules."""
    monkeypatch.setattr(preprocessor_mod, "usable_cpus", lambda: cpus)
    if eager:
        pool = preprocessor_mod._pool
        submitted = []

        class EagerPool:
            def submit(self, fn, i):
                submitted.append(i)
                future = pool().submit(fn, i)
                wait([future], timeout=60)
                assert future.done()
                return future

        monkeypatch.setattr(preprocessor_mod, "_pool", EagerPool)
        return submitted


def _windows(workload, blob, subset_format="xtc", lod=None, **kwargs):
    pre = DataPreProcessor(subset_format=subset_format, lod_precision=lod)
    label_map = pre.analyze_structure(workload.pdb_text)
    return pre.process_windows(
        label_map, blob, WINDOW, keep_coords=True, **kwargs
    )


def _content(windows):
    return [
        (w.index, w.start, w.stop, w.raw_nbytes, w.subsets, w.coords.tobytes())
        for w in windows
    ]


PUBLIC = {"raw": encode_raw, "xtc": encode_xtc, "dcd": encode_dcd}

ARRIVALS = {
    "xtc": lambda w: w.xtc_blob,
    "raw": lambda w: encode_raw(w.trajectory),
    "trr": lambda w: encode_trr(w.trajectory),
}


@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
@pytest.mark.parametrize("lod", [None, 12.5])
@pytest.mark.parametrize("subset_format", sorted(SUBSET_ENCODERS))
def test_read_ahead_output_is_the_serial_output(
    workload, monkeypatch, arrival, lod, subset_format
):
    blob = ARRIVALS[arrival](workload)
    # The serial reference, built window by window from a whole-stream
    # decode and the public encoders.
    pre = DataPreProcessor(subset_format=subset_format, lod_precision=lod)
    label_map = pre.analyze_structure(workload.pdb_text)
    whole = pre.decompressor.decompress(blob)
    reference = []
    for i, (start, stop) in enumerate(
        pre.decompressor.window_spans(blob, WINDOW)
    ):
        frames = whole.slice_frames(start, stop)
        split = pre.categorizer.split(frames, label_map)
        subsets = {t: PUBLIC[subset_format](sub) for t, sub in split.items()}
        if lod is not None:
            for tag, sub in split.items():
                subsets[lod_tag(tag)] = encode_xtc(sub, precision=lod)
        reference.append((
            i, start, stop, frames.nbytes, subsets, frames.coords.tobytes(),
        ))
    assert len(reference) == NFRAMES // WINDOW
    for cpus, eager in ((1, False), (2, True), (2, False), (8, True)):
        _cpus(monkeypatch, cpus, eager)
        got = _content(_windows(workload, blob, subset_format, lod))
        assert got == reference, (cpus, eager)


def test_read_ahead_under_fast_thread_switching(workload, monkeypatch):
    """The two threads share only read-only state (blob, spans, frame
    index, label map), so forced interleaving cannot change a byte."""
    _cpus(monkeypatch, 1)
    reference = _content(_windows(workload, workload.xtc_blob, "raw", 12.5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _cpus(monkeypatch, 8)
        for _ in range(3):
            got = _windows(workload, workload.xtc_blob, "raw", 12.5)
            assert _content(got) == reference
    finally:
        sys.setswitchinterval(interval)


def _corrupt_window(blob, bad):
    """Flip the I-frame origin of window ``bad``'s GOF: the header scan
    still passes, the decode of that GOF raises."""
    info = FrameIndex.build(blob).infos[bad * WINDOW]
    data = bytearray(blob)
    data[info.offset + info.header_nbytes] ^= 0xFF
    return bytes(data)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("bad", [1, 2])
def test_a_bad_window_raises_only_when_consumed(
    workload, monkeypatch, cpus, bad
):
    """At two CPUs window 1 fails on the read-ahead thread, and window 2
    on the caller while that thread holds window 3."""
    _cpus(monkeypatch, cpus, eager=True)
    windows = _windows(workload, _corrupt_window(workload.xtc_blob, bad))
    for i in range(bad):
        assert next(windows).index == i
    with pytest.raises(CodecError, match="I-frame origin checksum mismatch"):
        next(windows)


def test_read_ahead_is_one_window_however_many_cpus(workload, monkeypatch):
    """Only the one-window read-ahead was measured, so 64 usable CPUs
    still hand the pool one window at a time, the one after the caller's,
    on one thread."""
    pool = preprocessor_mod._pool
    submitted = _cpus(monkeypatch, 64, eager=True)
    for window in _windows(workload, workload.xtc_blob):
        assert max(submitted) <= window.index + 1
    assert submitted == [1, 3, 5, 7]
    assert pool()._max_workers == 1


@pytest.mark.parametrize("running", [True, False])
def test_close_leaves_no_window_in_flight(workload, monkeypatch, running):
    """The read-ahead window is running (held inside its decode), or
    queued behind another task on the pool's one thread, when the
    generator is closed."""
    _cpus(monkeypatch, 2)
    futures = []
    real_pool = preprocessor_mod._pool
    blocker = threading.Event()  # holds the pool's thread before the window
    started = threading.Event()  # the window's decode has begun
    release = threading.Event()  # lets that decode finish

    class RecordingPool:
        def submit(self, *args):
            if not running:
                real_pool().submit(blocker.wait, 60)
            futures.append(real_pool().submit(*args))
            return futures[-1]

    range_decoder = Decompressor.range_decoder

    def held_decoder(self, data):
        decode = range_decoder(self, data)

        def held(start, stop):
            if threading.current_thread() is not threading.main_thread():
                started.set()
                release.wait(60)
            return decode(start, stop)

        return held

    monkeypatch.setattr(preprocessor_mod, "_pool", RecordingPool)
    monkeypatch.setattr(Decompressor, "range_decoder", held_decoder)
    windows = _windows(workload, workload.xtc_blob)
    try:
        assert next(windows).index == 0
        assert len(futures) == 1
        if running:
            assert started.wait(60)
        assert not futures[0].done()
        release.set()
        windows.close()
        assert futures[0].done()
        assert futures[0].cancelled() != running
        assert started.is_set() == running
    finally:
        blocker.set()
        release.set()


def test_a_window_the_thread_has_not_started_is_the_callers(
    workload, monkeypatch
):
    """A stalled pool costs nothing: every window it has not started is
    cancelled and computed on the caller's thread instead."""
    _cpus(monkeypatch, 1)
    reference = _content(_windows(workload, workload.xtc_blob, lod=12.5))
    pending = []

    class StalledPool:
        def submit(self, *args):
            pending.append(Future())
            return pending[-1]

    monkeypatch.setattr(preprocessor_mod, "_pool", StalledPool)
    _cpus(monkeypatch, 2)
    assert _content(_windows(workload, workload.xtc_blob, lod=12.5)) == reference
    assert len(pending) == 4 and all(f.cancelled() for f in pending)


def _wrap_everywhere(monkeypatch, original, wrapper):
    """Swap every reference to a module-level function inside ``repro``
    (globals and module-level tables), as the host tracer does."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapper)
            elif isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    if item is original:
                        monkeypatch.setitem(value, key, wrapper)


def _record_codec_threads(monkeypatch):
    """Patch every codec entry point in ``TARGETS`` to log its thread."""
    trace = pytest.importorskip("benchmarks.e2e.trace")
    seen = []

    def recording(fn, name):
        def wrapper(*args, **kwargs):
            seen.append((name, threading.get_ident()))
            return fn(*args, **kwargs)

        return wrapper

    targets = [t for t in trace.TARGETS if t[0].startswith("repro.formats.")]
    assert {path for _, path, _, _ in targets} >= {
        "encode_xtc", "encode_raw", "decode_frame_range", "decode_raw",
        "FrameIndex.build",
    }
    for module_name, path, _, _ in targets:
        module = importlib.import_module(module_name)
        if "." in path:
            owner_name, attr = path.split(".", 1)
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(recording(original.__func__, path))
            else:
                wrapped = recording(original, path)
            monkeypatch.setattr(owner, attr, wrapped)
        else:
            original = getattr(module, path)
            _wrap_everywhere(monkeypatch, original, recording(original, path))
    return seen


@pytest.mark.parametrize("subset_format", sorted(SUBSET_ENCODERS))
@pytest.mark.parametrize("arrival", ["xtc", "raw"])
def test_read_ahead_enters_no_traced_codec_entry_point(
    workload, monkeypatch, subset_format, arrival
):
    _cpus(monkeypatch, 2, eager=True)
    split_threads = set()
    split = Categorizer.split

    def recording_split(self, *args):
        split_threads.add(threading.get_ident())
        return split(self, *args)

    monkeypatch.setattr(Categorizer, "split", recording_split)
    seen = _record_codec_threads(monkeypatch)
    blob = ARRIVALS[arrival](workload)
    windows = list(_windows(workload, blob, subset_format, lod=12.5))
    assert len(windows) == NFRAMES // WINDOW
    caller = threading.get_ident()
    assert len(split_threads) > 1  # the pool's thread did compute windows
    assert seen and {thread for _, thread in seen} == {caller}
    names = {name for name, _ in seen}
    assert ("FrameIndex.build" in names) == (arrival == "xtc")


def test_one_cpu_means_no_thread(workload, monkeypatch):
    _cpus(monkeypatch, 1)
    started = []
    monkeypatch.setattr(
        threading.Thread, "start", lambda self: started.append(self)
    )
    windows = list(_windows(workload, workload.xtc_blob, lod=12.5))
    assert len(windows) == NFRAMES // WINDOW
    assert started == []


def test_one_window_stream_reads_nothing_ahead(workload, monkeypatch):
    _cpus(monkeypatch, 4)
    monkeypatch.setattr(
        preprocessor_mod, "_pool",
        lambda: pytest.fail("a one-window stream read ahead"),
    )
    pre = DataPreProcessor()
    label_map = pre.analyze_structure(workload.pdb_text)
    (window,) = pre.process_windows(label_map, workload.xtc_blob, NFRAMES)
    assert window.subsets == pre.process_chunk(label_map, workload.xtc_blob).subsets


@pytest.mark.parametrize("cpu_max, cpus", [
    ("150000 100000\n", 1),   # 1.5 CPUs of quota: no read-ahead
    ("200000 100000\n", 2),
    ("max 100000\n", None),   # no quota: the affinity mask decides
    (None, None),             # no cgroup v2 file
])
def test_usable_cpus_obey_the_cgroup_quota(
    tmp_path, monkeypatch, cpu_max, cpus
):
    path = tmp_path / "cpu.max"
    if cpu_max is not None:
        path.write_text(cpu_max)
    monkeypatch.setattr(preprocessor_mod, "CPU_MAX", str(path))
    monkeypatch.setattr(preprocessor_mod.os, "sched_getaffinity",
                        lambda pid: set(range(8)), raising=False)
    assert preprocessor_mod.usable_cpus() == (8 if cpus is None else cpus)

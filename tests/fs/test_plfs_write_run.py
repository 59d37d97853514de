"""Coalesced chunk-run writes: ``PLFS.write_chunk_run`` + ``write_span``.

The write-side mirror of the read path's span coalescing: one metadata
operation and one seek-amortized device transfer per backend run, while
every chunk keeps its own index record and CRC-32.  The failure contract
is run-scoped: capacity is claimed before any store (``StorageFullError``
spills the whole run), a mid-span fault leaves no partial objects, and
nothing is indexed until a commit, whose failed append rolls back every
chunk it covers.
"""

import zlib

import pytest

from repro.errors import (
    ConfigurationError,
    StorageFullError,
    TransientFaultError,
)
from repro.fs.base import FileSystem, StoredObject
from repro.fs.localfs import LocalFS
from repro.fs.plfs import PLFS
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, mbps
from tests.fs.plfs_writes import commit_run


def _spec(name, capacity=GB, seek_s=8e-3):
    return DeviceSpec(
        name=name,
        read_bw=mbps(100),
        write_bw=mbps(100),
        seek_latency_s=seek_s,
        capacity=capacity,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )


def _plfs(capacity=GB, seek_s=8e-3):
    """PLFS over one data backend plus a separate metadata backend, so
    device-op assertions on the data disk are not muddied by index flushes."""
    sim = Simulator()
    sim.metrics = MetricsRegistry()
    backends = {
        "hdd": LocalFS(sim, _spec("hdd", capacity, seek_s), name="hdd"),
        "meta": LocalFS(sim, _spec("meta"), name="meta"),
    }
    return sim, PLFS(sim, backends, metadata_backend="meta")


ENTRIES = [("m", b"misc-bytes-0"), ("p", b"protein-bytes-00")]


def test_write_chunk_run_happy_path():
    sim, plfs = _plfs()
    records = sim.run_process(plfs.write_chunk_run("bar.xtc", ENTRIES, backend="hdd"))
    # Landed, not indexed: the window's commit indexes every run at once.
    assert not plfs.exists("bar.xtc")
    sim.run_process(plfs.commit("bar.xtc", records))
    assert [(r.tag, r.chunk) for r in records] == [("m", 0), ("p", 0)]
    hdd = plfs.backends["hdd"]
    for record, (tag, data) in zip(records, ENTRIES):
        assert record.backend == "hdd"
        assert record.path == PLFS.chunk_path("bar.xtc", tag, 0)
        assert record.nbytes == len(data)
        assert record.crc == zlib.crc32(data)
        assert hdd.store.data(record.path) == data
        plfs.verify_chunk(record, StoredObject(record.path, len(data), data))
    # The index flushed once and round-trips through a fresh PLFS view.
    fresh = PLFS(sim, plfs.backends, metadata_backend="meta")
    assert fresh.container_index("bar.xtc") == records
    assert plfs.fsck("bar.xtc")["ok"]


def test_chunk_numbers_continue_across_runs():
    sim, plfs = _plfs()
    first = sim.run_process(commit_run(plfs, "bar.xtc", ENTRIES, "hdd"))
    second = sim.run_process(commit_run(plfs, "bar.xtc", ENTRIES, "hdd"))
    assert [(r.tag, r.chunk) for r in first] == [("m", 0), ("p", 0)]
    assert [(r.tag, r.chunk) for r in second] == [("m", 1), ("p", 1)]
    assert plfs.subset_nbytes("bar.xtc", "p") == 2 * len(ENTRIES[1][1])


def test_empty_run_is_a_no_op():
    sim, plfs = _plfs()
    assert sim.run_process(plfs.write_chunk_run("bar.xtc", [], backend="hdd")) == []
    assert not plfs.exists("bar.xtc")


def test_unknown_backend_rejected():
    sim, plfs = _plfs()
    with pytest.raises(ConfigurationError):
        sim.run_process(plfs.write_chunk_run("bar.xtc", ENTRIES, backend="nope"))


def test_coalesced_run_pays_one_device_write():
    def ops(sim):
        counter = sim.metrics.counter(
            "device_ops_total", device="hdd", op="write"
        )
        return int(counter.value)

    sim_c, plfs_c = _plfs()
    sim_c.run_process(commit_run(plfs_c, "bar.xtc", ENTRIES * 2, "hdd"))
    sim_u, plfs_u = _plfs()
    sim_u.run_process(
        commit_run(plfs_u, "bar.xtc", ENTRIES * 2, "hdd", coalesce=False)
    )
    assert ops(sim_c) == 1
    assert ops(sim_u) == len(ENTRIES * 2)
    # Same chunks landed either way; only the request count differs.
    assert plfs_c.container_index("bar.xtc") == plfs_u.container_index("bar.xtc")
    # Seek amortization: the coalesced run is strictly faster in sim time.
    assert sim_c.now < sim_u.now


def test_index_flush_fault_rolls_back_whole_run():
    sim, plfs = _plfs()

    def failing_flush(logical, new_records, backend):
        raise TransientFaultError("index flush lost")
        yield  # pragma: no cover

    real_flush = plfs._flush_index
    plfs._flush_index = failing_flush
    with pytest.raises(TransientFaultError):
        sim.run_process(commit_run(plfs, "bar.xtc", ENTRIES, "hdd"))
    # No index records, no chunk objects, no log lines left behind.
    assert plfs.container_index("bar.xtc") == []
    assert list(plfs.backends["hdd"].store.walk()) == []
    assert list(plfs.backends["meta"].store.walk()) == []
    # A retry rewrites cleanly: counters left gaps, names are never reused.
    plfs._flush_index = real_flush
    records = sim.run_process(commit_run(plfs, "bar.xtc", ENTRIES, "hdd"))
    assert [(r.tag, r.chunk) for r in records] == [("m", 1), ("p", 1)]
    assert plfs.fsck("bar.xtc")["ok"]


def test_storage_full_propagates_before_any_store():
    sim, plfs = _plfs(capacity=8)  # smaller than the run's total
    hdd = plfs.backends["hdd"]
    with pytest.raises(StorageFullError):
        sim.run_process(plfs.write_chunk_run("bar.xtc", ENTRIES, backend="hdd"))
    assert list(hdd.store.walk()) == []
    assert hdd.device.used_bytes == 0  # reservation released, not leaked
    assert "bar.xtc" not in plfs._indexes or plfs._indexes["bar.xtc"] == []


def test_localfs_write_span_fault_leaves_no_partial_objects():
    from repro.faults import FaultPlan, FaultSpec

    sim = Simulator()
    fs = LocalFS(sim, _spec("hdd"), name="hdd")
    FaultPlan(seed=3, sites={"fs:hdd": FaultSpec(transient_rate=1.0)}).attach(fs)
    with pytest.raises(TransientFaultError):
        sim.run_process(fs.write_span([("a", b"aa"), ("b", b"bb")]))
    assert list(fs.store.walk()) == []
    assert fs.device.used_bytes == 0


class _FlakyFS(FileSystem):
    """Minimal base-class FS whose write fails on one marked path."""

    def __init__(self, sim, fail_on):
        super().__init__(sim, "flaky")
        self.fail_on = fail_on

    def write(self, path, data=None, nbytes=None, request_size=None,
              label="write"):
        yield self.sim.timeout(1e-6)
        if path == self.fail_on:
            raise TransientFaultError(f"flaky: {path}")
        size = self._payload_size(data, nbytes)
        self.store.put(path, data=data, nbytes=size)
        self.bytes_written += size
        return StoredObject(path=path, nbytes=size, data=data)

    def read(self, path, request_size=None, label="read"):
        yield self.sim.timeout(1e-6)
        return StoredObject(
            path=path, nbytes=self.store.nbytes(path), data=self.store.data(path)
        )


def test_base_write_span_fallback_rolls_back_stored_prefix():
    sim = Simulator()
    fs = _FlakyFS(sim, fail_on="b")
    with pytest.raises(TransientFaultError):
        sim.run_process(fs.write_span([("a", b"aa"), ("b", b"bb"), ("c", b"cc")]))
    # "a" was stored before "b" failed; the fallback deleted it again.
    assert list(fs.store.walk()) == []

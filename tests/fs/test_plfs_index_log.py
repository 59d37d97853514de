"""The PLFS index is an append-only record log (``FileSystem.append``).

A commit extends ``<logical>.plfs/index`` by its own records, so an
index flush costs the same however long the container already is; a
fresh client replays the log.  In memory every ``(logical, tag)`` keeps a
chunk-ordered record list, whatever order concurrent writers land in.
"""

import json

import pytest

from repro.errors import ContainerError, TransientFaultError
from repro.faults import FaultPlan, FaultSpec
from repro.fs import PLFS, PVFS, LocalFS, StorageTarget
from repro.fs.base import FileSystem, StoredObject
from repro.fs.cache import CachedFS
from repro.fs.memfs import ObjectStore
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.storage import Device, DevicePower, DeviceSpec
from repro.units import GB, mbps
from tests.fs.plfs_writes import commit_run, read_subset

LOGICAL = "bar.xtc"
INDEX = PLFS.index_path(LOGICAL)


def _spec(name, bw=100.0):
    return DeviceSpec(
        name=name,
        read_bw=mbps(bw),
        write_bw=mbps(bw),
        seek_latency_s=1e-3,
        capacity=GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )


def _local(sim, name, bw=100.0):
    return LocalFS(sim, _spec(name, bw), name=name)


def _striped(sim, name, ntargets=3, stripe_size=64):
    targets = [
        StorageTarget(Device(sim, _spec(f"{name}{i}"), name=f"{name}{i}"))
        for i in range(ntargets)
    ]
    return PVFS(sim, targets, name=name, stripe_size=stripe_size)


def _plfs(meta_factory=_local):
    """Fast and slow data backends plus a separate metadata backend, so
    everything on ``meta`` is index traffic."""
    sim = Simulator()
    sim.metrics = MetricsRegistry()
    backends = {
        "ssd": _local(sim, "ssd", bw=1000.0),
        "hdd": _local(sim, "hdd", bw=10.0),
        "meta": meta_factory(sim, "meta"),
    }
    return sim, PLFS(sim, backends, metadata_backend="meta")


def _fresh(plfs):
    """A second client of the same backends (nothing in memory)."""
    return PLFS(plfs.sim, plfs.backends, metadata_backend="meta")


def _used(fs):
    if isinstance(fs, PVFS):
        return [t.device.used_bytes for t in fs.targets]
    return [fs.device.used_bytes]


# -- (a) a flush costs O(run), not O(container) -------------------------------


def test_kth_flush_bytes_do_not_grow_with_the_container():
    sim, plfs = _plfs()
    written = sim.metrics.counter("device_bytes_total", device="meta", op="write")
    meta = plfs.backends["meta"]
    run = [("m", b"misc-bytes"), ("p", b"protein-bytes")]
    per_flush = []
    for _ in range(120):
        before, log_before = written.value, (
            meta.nbytes(INDEX) if meta.exists(INDEX) else 0
        )
        sim.run_process(commit_run(plfs, LOGICAL, run, backend="hdd"))
        per_flush.append(written.value - before)
        # The device moved exactly the run's own log lines.
        assert per_flush[-1] == meta.nbytes(INDEX) - log_before
    # Only the chunk number's digit count (in ``path`` and ``chunk``, two
    # records a run) separates the first flush from the last.
    assert max(per_flush) - min(per_flush) <= 2 * 2 * 2
    assert sum(per_flush) == meta.nbytes(INDEX)
    assert meta.device.used_bytes == meta.nbytes(INDEX)


# -- (b) replay == warm index; failed writers leave no lines ------------------


def test_cold_replay_matches_warm_index_after_concurrent_writers():
    sim, plfs = _plfs()
    flaky = plfs.backends["flaky"] = _local(sim, "flaky")
    FaultPlan(seed=5, sites={"fs:flaky": FaultSpec(transient_rate=1.0)}).attach(
        flaky
    )
    failures = []

    def runs():
        for _ in range(4):
            yield from commit_run(
                plfs, LOGICAL, [("m", b"m" * 400), ("p", b"p" * 90)], "hdd"
            )

    def subsets():
        for _ in range(6):
            yield from commit_run(plfs, LOGICAL, [("p", b"s" * 50)], "ssd")

    def doomed():
        try:
            yield from commit_run(plfs, LOGICAL, [("p", b"lost")], "flaky")
        except TransientFaultError as exc:
            failures.append(exc)

    for writer in (runs, subsets, doomed):
        sim.process(writer())
    sim.run()
    assert len(failures) == 1

    warm = plfs.container_index(LOGICAL)
    log = [
        json.loads(line)
        for line in plfs.backends["meta"].data(INDEX).splitlines()
    ]
    # The writers really interleaved: the log is not in (tag, chunk) order.
    assert [(r["tag"], r["chunk"]) for r in log] != [(r.tag, r.chunk) for r in warm]
    assert all(r["backend"] != "flaky" for r in log)
    assert len(log) == len(warm) == 4 * 2 + 6

    cold = _fresh(plfs)
    assert cold.container_index(LOGICAL) == warm
    assert cold.tags(LOGICAL) == plfs.tags(LOGICAL) == ["m", "p"]
    for tag in ("m", "p"):
        assert cold.subset_records(LOGICAL, tag) == plfs.subset_records(LOGICAL, tag)
        assert cold.subset_nbytes(LOGICAL, tag) == plfs.subset_nbytes(LOGICAL, tag)
    assert cold.container_nbytes(LOGICAL) == 4 * 490 + 6 * 50
    # The doomed writer burned a chunk number; nobody reused it.
    chunks = [r.chunk for r in warm if r.tag == "p"]
    assert len(set(chunks)) == len(chunks) == 10 and max(chunks) == 10
    assert plfs.fsck(LOGICAL)["ok"]


def test_fresh_client_appends_after_the_stored_chunks():
    sim, plfs = _plfs()
    sim.run_process(commit_run(plfs, LOGICAL, [("p", b"one")], "ssd"))
    sim.run_process(commit_run(plfs, LOGICAL, [("p", b"two")], "ssd"))
    other = _fresh(plfs)
    [record] = sim.run_process(
        commit_run(other, LOGICAL, [("p", b"three")], "ssd")
    )
    assert record.chunk == 2
    assert sim.run_process(read_subset(other, LOGICAL, "p")).data == b"onetwothree"
    assert _fresh(plfs).container_index(LOGICAL) == other.container_index(LOGICAL)


def test_cold_client_never_reuses_an_orphans_name():
    """Runs that landed without their commit leave ``data.N`` objects the
    log does not name -- here ``p``'s chunk 1 on the HDD and ``m``'s chunk
    0 on the SSD, a tag with no indexed record.  A fresh client replays
    only the log, yet must step past both names on any backend instead of
    writing over them."""
    sim, plfs = _plfs()
    sim.run_process(commit_run(plfs, LOGICAL, [("p", b"one")], "hdd"))
    for tag, backend in (("p", "hdd"), ("m", "ssd")):
        sim.run_process(
            plfs.write_chunk_run(LOGICAL, [(tag, b"orphan")], backend=backend)
        )
    cold = _fresh(plfs)
    records = sim.run_process(
        commit_run(cold, LOGICAL, [("p", b"three"), ("m", b"mm")], "hdd")
    )
    assert [(r.tag, r.chunk) for r in records] == [("p", 2), ("m", 1)]
    orphans = [PLFS.chunk_path(LOGICAL, "p", 1), PLFS.chunk_path(LOGICAL, "m", 0)]
    assert plfs.backends["hdd"].data(orphans[0]) == b"orphan"
    assert plfs.backends["ssd"].data(orphans[1]) == b"orphan"
    assert cold.fsck(LOGICAL)["orphaned"] == sorted(
        [f"hdd:{orphans[0]}", f"ssd:{orphans[1]}"]
    )
    assert sim.run_process(read_subset(cold, LOGICAL, "p")).data == b"onethree"
    assert sim.run_process(read_subset(cold, LOGICAL, "m")).data == b"mm"


# -- (c) a damaged complete line is a corrupt index; a torn tail is not -------


@pytest.mark.parametrize(
    "damage",
    [
        # a torn line with a complete one after it: not a crash mid-append
        lambda log: log[:9] + b"\n" + log.splitlines(keepends=True)[-1],
        lambda log: log + b"not json\n",
        lambda log: log + b"\n",  # blank line
        lambda log: log + b"[1, 2]\n",  # JSON, but not a record
        lambda log: log + b'{"tag": "p"}\n',  # record with fields missing
    ],
)
def test_damaged_log_line_raises_container_error(damage):
    sim, plfs = _plfs()
    sim.run_process(commit_run(plfs, LOGICAL, [("p", b"x")], "ssd"))
    sim.run_process(commit_run(plfs, LOGICAL, [("m", b"yy")], "hdd"))
    meta = plfs.backends["meta"]
    meta.store.put(INDEX, data=damage(meta.data(INDEX)))
    with pytest.raises(ContainerError, match="corrupt"):
        _fresh(plfs).container_index(LOGICAL)


def test_torn_final_line_loses_only_its_own_window():
    """A crash mid-append leaves a prefix of the last window's line: replay
    stops at the last complete line, the torn window's chunk is an
    orphan, and the next append cuts the tail off before extending."""
    sim, plfs = _plfs()
    first = [("m", b"m" * 30), ("p", b"p" * 20)]
    sim.run_process(commit_run(plfs, LOGICAL, first, "hdd"))
    sim.run_process(commit_run(plfs, LOGICAL, [("p", b"q" * 20)], "hdd"))
    meta = plfs.backends["meta"]
    log = meta.data(INDEX)
    committed = log[: log.rfind(b"\n", 0, len(log) - 1) + 1]
    meta.replace(INDEX, log[: (len(committed) + len(log)) // 2])

    cold = _fresh(plfs)
    assert cold.container_index(LOGICAL) == plfs.container_index(LOGICAL)[:2]
    for tag, data in first:
        assert sim.run_process(read_subset(cold, LOGICAL, tag)).data == data
    assert cold.fsck(LOGICAL)["orphaned"] == [
        f"hdd:{PLFS.chunk_path(LOGICAL, 'p', 1)}"
    ]

    sim.run_process(commit_run(cold, LOGICAL, [("m", b"n" * 10)], "ssd"))
    assert meta.data(INDEX).startswith(committed)
    assert len(meta.data(INDEX).splitlines()) == 3
    assert meta.device.used_bytes == meta.nbytes(INDEX)
    assert _fresh(plfs).container_index(LOGICAL) == cold.container_index(LOGICAL)
    assert cold.fsck(LOGICAL)["orphaned"] == [
        f"hdd:{PLFS.chunk_path(LOGICAL, 'p', 1)}"
    ]


def test_torn_tail_goes_with_a_compaction():
    sim, plfs = _plfs()
    for _ in range(2):
        sim.run_process(
            commit_run(plfs, LOGICAL, [("m", b"mm"), ("p", b"ppp")], "hdd")
        )
    meta = plfs.backends["meta"]
    meta.replace(INDEX, meta.data(INDEX)[:-5])
    cold = _fresh(plfs)
    assert [r.tag for r in cold.container_index(LOGICAL)] == ["m", "m", "p"]
    cold.delete_subset(LOGICAL, "m")
    assert meta.data(INDEX).endswith(b"\n")
    assert _fresh(plfs).container_index(LOGICAL) == cold.container_index(LOGICAL)


# -- (d) append goes through the write fault gate -----------------------------


@pytest.mark.parametrize("meta_factory", [_local, _striped])
def test_append_is_gated_as_a_write(meta_factory):
    sim, plfs = _plfs(meta_factory)
    meta = plfs.backends["meta"]
    plan = FaultPlan(seed=11, sites={"fs:meta": FaultSpec(transient_rate=1.0)})
    plan.attach(meta)
    with pytest.raises(TransientFaultError, match="during write"):
        sim.run_process(meta.append("log", b"line\n"))
    assert not meta.exists("log") and not any(_used(meta))
    # The index flush sees the same gate: the run rolls back, no line lands.
    with pytest.raises(TransientFaultError, match="during write"):
        sim.run_process(
            commit_run(plfs, LOGICAL, [("p", b"data")], backend="ssd")
        )
    assert not meta.exists(INDEX)
    assert plfs.container_index(LOGICAL) == []
    assert list(plfs.backends["ssd"].store.walk()) == []
    assert plan.injected[("fs:meta", "transient")] == 2


# -- (e) chunk order survives out-of-order registration -----------------------


def test_subset_records_stay_chunk_ordered_when_a_lower_chunk_lands_late():
    sim, plfs = _plfs()
    # Chunk 0 goes to the slow disk and lands after chunks 1 and 2.
    sim.process(commit_run(plfs, LOGICAL, [("p", b"0" * 400_000)], "hdd"))
    sim.process(commit_run(plfs, LOGICAL, [("p", b"1")], "ssd"))
    sim.process(commit_run(plfs, LOGICAL, [("p", b"2")], "ssd"))
    sim.run()
    log = [
        json.loads(line)["chunk"]
        for line in plfs.backends["meta"].data(INDEX).splitlines()
    ]
    assert log == [1, 2, 0]
    assert [r.chunk for r in plfs.subset_records(LOGICAL, "p")] == [0, 1, 2]
    assert plfs.subset_nbytes(LOGICAL, "p") == 400_002
    assert [r.chunk for r in _fresh(plfs).subset_records(LOGICAL, "p")] == [0, 1, 2]
    obj = sim.run_process(read_subset(plfs, LOGICAL, "p"))
    assert obj.data == b"0" * 400_000 + b"12"


# -- delete_subset persists ---------------------------------------------------


def test_delete_subset_survives_a_cold_reload():
    sim, plfs = _plfs()
    for _ in range(3):
        sim.run_process(
            commit_run(plfs, LOGICAL, [("m", b"mm"), ("p", b"ppp")], backend="hdd")
        )
    meta = plfs.backends["meta"]
    assert plfs.delete_subset(LOGICAL, "m") == 6
    assert meta.device.used_bytes == meta.nbytes(INDEX)
    cold = _fresh(plfs)
    assert cold.tags(LOGICAL) == ["p"]
    assert cold.container_index(LOGICAL) == plfs.container_index(LOGICAL)
    assert cold.fsck(LOGICAL)["ok"]
    # The log keeps growing from the compacted state.
    sim.run_process(commit_run(plfs, LOGICAL, [("m", b"new")], "hdd"))
    assert _fresh(plfs).subset_nbytes(LOGICAL, "m") == 3
    assert plfs.delete_subset(LOGICAL, "nope") == 0


def test_delete_subset_during_an_inflight_flush_keeps_the_log_exact():
    sim, plfs = _plfs()
    sim.run_process(
        commit_run(plfs, LOGICAL, [("m", b"mm"), ("p", b"ppp")], backend="ssd")
    )
    meta = plfs.backends["meta"]
    lines = len(meta.data(INDEX).splitlines())
    sim.process(commit_run(plfs, LOGICAL, [("p", b"late")], "ssd"))
    # Stop once the chunk is registered in memory but its log line is not
    # down yet, and compact under it.
    while len(plfs.subset_records(LOGICAL, "p")) == 1:
        sim.run(until=sim.now + 1e-4)
    assert len(meta.data(INDEX).splitlines()) == lines
    plfs.delete_subset(LOGICAL, "m")
    sim.run()
    assert [r.chunk for r in _fresh(plfs).container_index(LOGICAL)] == [0, 1]
    assert _fresh(plfs).container_index(LOGICAL) == plfs.container_index(LOGICAL)
    assert meta.device.used_bytes == meta.nbytes(INDEX)


# -- the capacity ledger balances --------------------------------------------


@pytest.mark.parametrize("factory", [_local, _striped])
def test_overwrite_and_append_balance_the_capacity_ledger(factory):
    sim = Simulator()
    fs = factory(sim, "fs")
    sim.run_process(fs.write("f", data=b"a" * 300))
    sim.run_process(fs.write("f", data=b"b" * 70))  # releases the 300
    assert sum(_used(fs)) == 70
    for i in range(25):
        sim.run_process(fs.append("f", bytes([i]) * 37))
        assert sum(_used(fs)) == fs.nbytes("f") == fs.store.total_bytes()
    sim.run_process(fs.write_span([("f", b"c" * 10), ("g", b"d" * 5)]))
    assert sum(_used(fs)) == 15
    assert fs.replace("g", b"e" * 200) == 200
    assert sum(_used(fs)) == fs.store.total_bytes() == 210
    fs.delete("f")
    fs.delete("g")
    assert not any(_used(fs))


def test_pvfs_append_continues_the_stripe_layout():
    sim = Simulator()
    fs = _striped(sim, "pv", ntargets=3, stripe_size=64)
    total = 0
    for size in (10, 100, 64, 1, 500):
        sim.run_process(fs.append("log", b"x" * size))
        total += size
        # Exactly the layout one write of the total would have reserved,
        # so ``delete`` (which frees that layout) balances every target.
        assert _used(fs) == fs.stripe_layout(total)
    assert fs.data("log") == b"x" * total
    fs.delete("log")
    assert not any(_used(fs))


def test_pvfs_concurrent_appends_balance_every_target():
    sim = Simulator()
    fs = _striped(sim, "pv", ntargets=2, stripe_size=64)
    # Both start from size 0 and would each reserve target 0's first
    # stripe; the second to land re-homes onto the stripes it continues.
    sim.process(fs.append("log", b"a" * 40))
    sim.process(fs.append("log", b"b" * 40))
    sim.run()
    assert _used(fs) == fs.stripe_layout(80) == [64, 16]
    fs.delete("log")
    assert not any(_used(fs))


@pytest.mark.parametrize("meta_factory", [_local, _striped])
def test_container_lifecycle_returns_every_byte(meta_factory):
    sim, plfs = _plfs(meta_factory)
    for _ in range(8):
        sim.run_process(
            commit_run(plfs, LOGICAL, [("m", b"mm"), ("p", b"ppp")], backend="hdd")
        )
        sim.run_process(commit_run(plfs, LOGICAL, [("p", b"s")], "ssd"))
    for fs in plfs.backends.values():
        assert sum(_used(fs)) == fs.store.total_bytes()
    plfs.delete_subset(LOGICAL, "m")
    plfs.delete_container(LOGICAL)
    for fs in plfs.backends.values():
        assert not any(_used(fs)) and len(fs.store) == 0


# -- the store primitive ------------------------------------------------------


def test_object_store_append_joins_lazily():
    store = ObjectStore()
    assert store.append("log", b"ab") == 2  # creates
    for i in range(3):
        store.append("log", b"cd")
    assert store.nbytes("log") == store.total_bytes() == 8
    assert store.data("log") == b"abcdcdcd"
    assert store.data("log") is store.data("log")  # joined once, then kept
    store.put("log", data=b"z")  # overwrite drops the segments
    assert store.data("log") == b"z"
    store.put("virtual", nbytes=10)
    assert store.append("virtual", b"xyz") == 13 and store.is_virtual("virtual")


# -- append on the other file systems -----------------------------------------


def test_cached_fs_append_invalidates_then_readmits_the_grown_object():
    sim = Simulator()
    inner = _local(sim, "inner")
    fs = CachedFS(inner, GB)
    sim.run_process(fs.write("log", data=b"head"))
    sim.run_process(fs.append("log", b"-tail"))
    assert fs.metrics.value("page_cache_invalidations_total", fs=fs.name) == 1
    assert fs.is_cached("log")
    assert fs.cached_bytes == 9 == inner.device.used_bytes
    assert sim.run_process(fs.read("log")).data == b"head-tail"
    assert fs.metrics.value("page_cache_hits_total", fs=fs.name) == 1
    fs.delete("log")
    assert inner.device.used_bytes == 0


def test_base_append_fallback_rewrites_the_object():
    class PlainFS(FileSystem):
        def write(self, path, data=None, nbytes=None, request_size=None,
                  label="write"):
            yield self.sim.timeout(1e-6)
            self.store.put(path, data=data)
            return StoredObject(path=path, nbytes=len(data), data=data)

        def read(self, path, request_size=None, label="read"):
            yield self.sim.timeout(1e-6)
            return StoredObject(path, self.store.nbytes(path), self.store.data(path))

    sim = Simulator()
    fs = PlainFS(sim, "plain")
    for part in (b"a", b"bc", b"def"):
        extent = sim.run_process(fs.append("log", part))
        assert extent.data == part
    assert fs.data("log") == b"abcdef"

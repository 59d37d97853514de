"""Tests for the PLFS container layer."""

import pytest

from repro.errors import ConfigurationError, ContainerError, TagNotFoundError
from repro.fs import PLFS, LocalFS
from repro.fs.plfs import IndexRecord
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, MB, mbps
from tests.fs.plfs_writes import commit_run, read_container, read_subset


def _fs(sim, name, read=100.0):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(read),
        write_bw=mbps(read),
        seek_latency_s=0.0,
        capacity=10 * GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name, metadata_latency_s=0.0)


def _plfs(sim, ssd_speed=1000.0, hdd_speed=100.0):
    return PLFS(
        sim,
        backends={
            "ssd": _fs(sim, "ssd", read=ssd_speed),
            "hdd": _fs(sim, "hdd", read=hdd_speed),
        },
        metadata_backend="ssd",
    )


def test_needs_backends():
    with pytest.raises(ConfigurationError):
        PLFS(Simulator(), backends={})


def test_unknown_metadata_backend_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        PLFS(sim, backends={"a": _fs(sim, "a")}, metadata_backend="b")


def test_write_subset_places_on_named_backend():
    sim = Simulator()
    plfs = _plfs(sim)
    sim.run_process(commit_run(plfs, "bar", [("p", b"protein")], "ssd"))
    sim.run_process(commit_run(plfs, "bar", [("m", b"misc!")], "hdd"))
    assert plfs.backends["ssd"].exists("bar.plfs/subset.p/data.0")
    assert plfs.backends["hdd"].exists("bar.plfs/subset.m/data.0")
    # Paper Fig. 6: containers carry per-mount directories + subdirs.
    assert "subset.p" in plfs.backends["ssd"].listdir("bar.plfs")


def test_unknown_backend_rejected():
    sim = Simulator()
    plfs = _plfs(sim)
    with pytest.raises(ConfigurationError):
        sim.run_process(commit_run(plfs, "bar", [("p", b"x")], "nvme"))


def test_read_subset_roundtrip():
    sim = Simulator()
    plfs = _plfs(sim)
    sim.run_process(commit_run(plfs, "bar", [("p", b"abc")], "ssd"))
    obj = sim.run_process(read_subset(plfs, "bar", "p"))
    assert obj.data == b"abc"
    assert obj.nbytes == 3


def test_multi_chunk_subset_concatenates_in_order():
    sim = Simulator()
    plfs = _plfs(sim)
    for part in (b"one-", b"two-", b"three"):
        sim.run_process(commit_run(plfs, "bar", [("p", part)], "ssd"))
    obj = sim.run_process(read_subset(plfs, "bar", "p"))
    assert obj.data == b"one-two-three"
    records = plfs.subset_records("bar", "p")
    assert [r.chunk for r in records] == [0, 1, 2]


def test_missing_tag_raises_with_available_tags():
    sim = Simulator()
    plfs = _plfs(sim)
    sim.run_process(commit_run(plfs, "bar", [("p", b"x")], "ssd"))
    with pytest.raises(TagNotFoundError, match="'p'"):
        sim.run_process(read_subset(plfs, "bar", "z"))


def test_missing_container_raises():
    sim = Simulator()
    plfs = _plfs(sim)
    with pytest.raises(ContainerError):
        plfs.container_index("ghost")


def test_index_survives_cache_loss():
    """The index is durable on the metadata backend, not just in memory."""
    sim = Simulator()
    plfs = _plfs(sim)
    sim.run_process(commit_run(plfs, "bar", [("p", b"x")], "ssd"))
    sim.run_process(commit_run(plfs, "bar", [("m", b"yy")], "hdd"))
    plfs._indexes.clear()  # simulate a fresh PLFS client
    assert plfs.tags("bar") == ["m", "p"]
    assert plfs.subset_nbytes("bar", "m") == 2


def test_corrupt_index_raises():
    sim = Simulator()
    plfs = _plfs(sim)
    sim.run_process(commit_run(plfs, "bar", [("p", b"x")], "ssd"))
    plfs._indexes.clear()
    # A complete line that is no record (a torn, unterminated one is not
    # corruption: see test_plfs_index_log's torn-tail tests).
    plfs.backends["ssd"].store.put("bar.plfs/index", data=b"not json\n")
    with pytest.raises(ContainerError, match="corrupt"):
        plfs.container_index("bar")


def test_container_nbytes_and_exists():
    sim = Simulator()
    plfs = _plfs(sim)
    assert not plfs.exists("bar")
    sim.run_process(commit_run(plfs, "bar", [("p", 100)], "ssd"))
    sim.run_process(commit_run(plfs, "bar", [("m", 300)], "hdd"))
    assert plfs.exists("bar")
    assert plfs.container_nbytes("bar") == 400
    assert plfs.subset_nbytes("bar", "p") == 100


def test_read_container_returns_all_tags():
    sim = Simulator()
    plfs = _plfs(sim)
    sim.run_process(commit_run(plfs, "bar", [("p", b"pp")], "ssd"))
    sim.run_process(commit_run(plfs, "bar", [("m", b"mmm")], "hdd"))
    objs = sim.run_process(read_container(plfs, "bar"))
    assert objs["p"].data == b"pp"
    assert objs["m"].nbytes == 3


def test_subset_reads_hit_only_their_backend():
    """Tag-selective read touches the SSD only -- the fine-grained-view
    advantage of Section 4.1."""
    sim = Simulator()
    plfs = _plfs(sim)
    sim.run_process(
        commit_run(plfs, "bar", [("p", int(10 * MB))], "ssd")
    )
    sim.run_process(
        commit_run(plfs, "bar", [("m", int(10 * MB))], "hdd")
    )
    hdd_before = plfs.backends["hdd"].device.busy.busy_time("plfs")
    sim.run_process(read_subset(plfs, "bar", "p"))
    assert plfs.backends["hdd"].device.busy.busy_time("plfs") == hdd_before


def test_parallel_subset_read_overlaps_backends():
    """Reading the whole container overlaps SSD and HDD work."""
    sim = Simulator()
    plfs = _plfs(sim, ssd_speed=1000.0, hdd_speed=100.0)
    sim.run_process(
        commit_run(plfs, "bar", [("p", int(100 * MB))], "ssd")
    )
    sim.run_process(
        commit_run(plfs, "bar", [("m", int(100 * MB))], "hdd")
    )
    t0 = sim.now
    sim.run_process(read_container(plfs, "bar"))
    # HDD (1.0 s) dominates; SSD's 0.1 s hides inside it.
    assert sim.now - t0 == pytest.approx(1.0, rel=0.05)


def test_virtual_subsets_flow_through():
    sim = Simulator()
    plfs = _plfs(sim)
    sim.run_process(commit_run(plfs, "bar", [("p", 10**9)], "ssd"))
    obj = sim.run_process(read_subset(plfs, "bar", "p"))
    assert obj.is_virtual
    assert obj.nbytes == 10**9


# -- windowed index lookups ---------------------------------------------------


def _gappy(sim, stored=(0, 1, 2, 5, 6, 9)):
    """A subset whose chunk numbers have gaps (failed writes leave them):
    claim every number up to the highest, store only ``stored``."""
    plfs = _plfs(sim)
    for chunk in range(max(stored) + 1):
        if chunk in stored:
            sim.run_process(
                commit_run(plfs, "bar", [("p", b"x" * (chunk + 1))], "ssd")
            )
        else:
            plfs._claim_chunk("bar", "p")
    assert [r.chunk for r in plfs.subset_records("bar", "p")] == list(stored)
    return plfs


def test_chunk_record_finds_dense_and_gappy_chunks():
    plfs = _gappy(Simulator())
    whole = {r.chunk: r for r in plfs.subset_records("bar", "p")}
    for chunk in range(-2, 13):
        assert plfs.chunk_record("bar", "p", chunk) is whole.get(chunk)
    assert plfs.last_chunk("bar", "p") == 9
    # The cost estimate sums the same records, absent chunks counting 0.
    window = [9, -1, 3, 4, 12, 0]
    assert plfs.chunks_nbytes("bar", "p", window) == sum(
        whole[c].nbytes for c in window if c in whole
    )
    assert plfs.chunks_nbytes("bar", "p", []) == 0


def test_chunk_records_is_the_filtered_subset_in_chunk_order():
    plfs = _gappy(Simulator())
    whole = plfs.subset_records("bar", "p")
    for window in ([6, 5], [0], [9, 0, 2, 2], range(0, 3), []):
        wanted = set(window)
        assert plfs.chunk_records("bar", "p", window) == [
            r for r in whole if r.chunk in wanted
        ]


def test_chunk_records_names_the_missing_chunks():
    plfs = _gappy(Simulator())
    with pytest.raises(ContainerError, match=r"bar#p: no chunk\(s\) \[3, 7\]"):
        plfs.chunk_records("bar", "p", [7, 2, 3])
    with pytest.raises(TagNotFoundError):
        plfs.chunk_records("bar", "nope", [0])
    with pytest.raises(TagNotFoundError):
        plfs.last_chunk("bar", "nope")


def _record(**changes):
    fields = dict(tag="p", backend="ssd", path="bar.plfs/p.0", nbytes=7)
    return IndexRecord(**{**fields, **changes})


def test_index_record_is_immutable():
    record = _record()
    with pytest.raises(AttributeError):
        record.nbytes = 8
    with pytest.raises(AttributeError):
        record.extra = 1


def test_index_record_compares_and_hashes_by_value():
    a, b = _record(chunk=3, crc=11), _record(chunk=3, crc=11)
    assert a == b and hash(a) == hash(b)
    assert a == ("p", "ssd", "bar.plfs/p.0", 7, 3, 11)  # a tuple of its fields
    assert a != _record(chunk=4, crc=11)
    assert len({a, b, _record()}) == 2


def test_index_record_replace_leaves_the_original():
    record = _record(chunk=2)
    moved = record._replace(backend="hdd")
    assert moved is not record and moved.backend == "hdd"
    assert (record.backend, moved.chunk) == ("ssd", 2)

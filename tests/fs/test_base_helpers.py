"""Tests for shared FS helpers and the StoredObject contract."""

import pytest

from repro.core import ADA
from repro.fs.base import FileSystem, StoredObject
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload


def test_payload_size_from_data():
    assert FileSystem._payload_size(b"abcde", None) == 5


def test_payload_size_from_nbytes():
    assert FileSystem._payload_size(None, 1234) == 1234


def test_payload_size_requires_one():
    with pytest.raises(ValueError):
        FileSystem._payload_size(None, None)


@pytest.mark.parametrize(
    "nbytes,request_size,expected",
    [
        (100, None, 1),
        (100, 0, 1),
        (0, 10, 1),
        (100, 100, 1),
        (101, 100, 2),
        (1000, 64, 16),
        (1001, 64, 16),
        (1025, 64, 17),
    ],
)
def test_request_count(nbytes, request_size, expected):
    assert FileSystem._request_count(nbytes, request_size) == expected


def test_stored_object_virtuality():
    assert StoredObject(path="p", nbytes=5).is_virtual
    assert not StoredObject(path="p", nbytes=5, data=b"12345").is_virtual


def test_stored_object_is_frozen():
    obj = StoredObject(path="p", nbytes=5)
    with pytest.raises(AttributeError):
        obj.nbytes = 10


def test_stored_object_compares_and_hashes_by_value():
    a = StoredObject(path="p", nbytes=5, data=b"12345")
    b = StoredObject("p", 5, b"12345")
    assert a == b and hash(a) == hash(b)
    assert a == ("p", 5, b"12345", "full", None)  # a tuple of its fields
    assert a != a._replace(tier="lod")
    assert len({a, b, a._replace(nbytes=4)}) == 2


def test_stored_object_replace_leaves_the_original():
    obj = StoredObject(path="p", nbytes=5, data=b"12345")
    coarse = obj._replace(tier="lod", max_error=0.04)
    assert coarse is not obj
    assert (coarse.tier, coarse.max_error, coarse.data) == ("lod", 0.04, b"12345")
    assert (obj.tier, obj.max_error) == ("full", None)


def test_lod_stamping_never_reaches_a_cached_object():
    """The front stamps the coarse tier on copies: the cache keeps serving
    the same chunks, lod tag or base tag, as plain ``"full"`` reads."""
    workload = build_workload(natoms=300, nframes=12, seed=3)
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        block_cache=BlockCache(sim, l1_capacity_bytes=1 << 24),
        lod_precision=12.5,
    )
    sim.run_process(ada.ingest("t.xtc", workload.pdb_text, workload.xtc_blob))
    bound = ada.lod_bound("t.xtc")
    assert bound is not None

    def read(tag, precision):
        return sim.run_process(
            ada.fetch_chunks("t.xtc", tag, [0], precision=precision)
        )

    misses = ada.metrics.value("block_cache_misses_total")
    coarse = read("p", "lod")  # from storage, then from the cache
    for objs in (coarse, read("p", "lod")):
        assert [(o.tier, o.max_error) for o in objs] == [("lod", bound)]
    cached = read("lod:p", "full")  # the coarse layer's own tag, verbatim
    assert [(o.tier, o.max_error) for o in cached] == [("full", None)]
    assert cached[0].data == coarse[0].data
    read("p", "full")  # from storage
    full = read("p", "full")  # from the cache
    assert [(o.tier, o.max_error) for o in full] == [("full", None)]
    assert ada.metrics.value("block_cache_misses_total") - misses == 2
    assert [(o.tier, o.max_error) for o in coarse] == [("lod", bound)]

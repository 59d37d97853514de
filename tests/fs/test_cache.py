"""Tests for the page-cache FS wrapper."""

import pytest

from repro.errors import ConfigurationError
from repro.fs import LocalFS
from repro.fs.cache import CachedFS
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, MB, mbps


def _inner(sim, read=100.0):
    spec = DeviceSpec(
        name="disk",
        read_bw=mbps(read),
        write_bw=mbps(read),
        seek_latency_s=0.0,
        capacity=100 * GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, metadata_latency_s=0.0)


def _cached(sim, capacity=1 * GB, read=100.0, mem_bw=mbps(6000)):
    return CachedFS(_inner(sim, read), capacity, memory_bandwidth=mem_bw)


def test_validation():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        CachedFS(_inner(sim), 0)
    with pytest.raises(ConfigurationError):
        CachedFS(_inner(sim), 1 * GB, memory_bandwidth=0)


def test_first_read_misses_second_hits():
    sim = Simulator()
    fs = _cached(sim)
    sim.run_process(fs.write("f", nbytes=int(100 * MB)))
    fs.invalidate()
    t0 = sim.now
    sim.run_process(fs.read("f"))
    cold = sim.now - t0
    t0 = sim.now
    sim.run_process(fs.read("f"))
    warm = sim.now - t0
    assert fs.metrics.value("page_cache_misses_total", fs=fs.name) == 1
    assert fs.metrics.value("page_cache_hits_total", fs=fs.name) == 1
    assert cold == pytest.approx(1.0, rel=0.01)
    assert warm < cold / 20  # memory speed


def test_write_through_populates_cache():
    sim = Simulator()
    fs = _cached(sim)
    sim.run_process(fs.write("f", data=b"x" * 1000))
    assert fs.is_cached("f")
    obj = sim.run_process(fs.read("f"))
    assert fs.metrics.value("page_cache_hits_total", fs=fs.name) == 1
    assert obj.data == b"x" * 1000


def test_lru_eviction_under_pressure():
    sim = Simulator()
    fs = _cached(sim, capacity=int(250 * MB))
    for name in ("a", "b", "c"):
        sim.run_process(fs.write(name, nbytes=int(100 * MB)))
    # a was evicted (250 MB cap, 300 MB written).
    assert not fs.is_cached("a")
    assert fs.is_cached("b") and fs.is_cached("c")
    assert fs.cached_bytes <= 250 * MB


def test_lru_recency_ordering():
    sim = Simulator()
    fs = _cached(sim, capacity=int(250 * MB))
    sim.run_process(fs.write("a", nbytes=int(100 * MB)))
    sim.run_process(fs.write("b", nbytes=int(100 * MB)))
    sim.run_process(fs.read("a"))  # refresh a
    sim.run_process(fs.write("c", nbytes=int(100 * MB)))
    assert fs.is_cached("a")
    assert not fs.is_cached("b")


def test_oversized_object_bypasses_cache():
    sim = Simulator()
    fs = _cached(sim, capacity=int(50 * MB))
    sim.run_process(fs.write("big", nbytes=int(100 * MB)))
    assert not fs.is_cached("big")


def test_invalidate_single_path():
    sim = Simulator()
    fs = _cached(sim)
    sim.run_process(fs.write("f", nbytes=1000))
    fs.invalidate("f")
    assert not fs.is_cached("f")


def test_namespace_shared_with_inner():
    sim = Simulator()
    inner = _inner(sim)
    fs = CachedFS(inner, 1 * GB)
    sim.run_process(fs.write("f", data=b"abc"))
    assert inner.exists("f")
    assert inner.data("f") == b"abc"

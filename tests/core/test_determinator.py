"""Tests for the I/O determinator (indexer + dispatcher + retriever)."""

import pytest

from repro.core import ADA, IODeterminator, PlacementPolicy
from repro.fs import LocalFS, PLFS
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, MB, mbps


def _fs(sim, name, read=1000.0):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(read),
        write_bw=mbps(read),
        seek_latency_s=0.0,
        capacity=100 * GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name, metadata_latency_s=0.0)


@pytest.fixture
def setup():
    sim = Simulator()
    backends = {"ssd": _fs(sim, "ssd", 3000.0), "hdd": _fs(sim, "hdd", 126.0)}
    plfs = PLFS(sim, backends, metadata_backend="ssd")
    det = IODeterminator(sim, plfs, PlacementPolicy.paper_default())
    return sim, backends, det


def _ada():
    """A two-tier ADA over the same devices; whole-dataset reads live on
    the data plane, not the determinator."""
    sim = Simulator()
    backends = {"ssd": _fs(sim, "ssd", 3000.0), "hdd": _fs(sim, "hdd", 126.0)}
    return sim, ADA(sim, backends)


def test_store_routes_by_tag(setup):
    sim, backends, det = setup
    sim.run_process(det.store("bar.xtc", {"p": b"protein!", "m": b"misc"}))
    assert backends["ssd"].exists("bar.xtc.plfs/subset.p/data.0")
    assert backends["hdd"].exists("bar.xtc.plfs/subset.m/data.0")


def test_fetch_tag_returns_subset(setup):
    sim, _, det = setup
    sim.run_process(det.store("bar.xtc", {"p": b"protein!", "m": b"misc"}))
    obj = sim.run_process(det.fetch("bar.xtc", "p"))
    assert obj.data == b"protein!"


def test_fetch_charges_indexer_latency(setup):
    sim, _, det = setup
    sim.run_process(det.store("bar.xtc", {"p": b"x" * 1000}))
    t0 = sim.now
    sim.run_process(det.fetch("bar.xtc", "p"))
    assert sim.now - t0 >= det.indexer.lookup_latency_s == 2e-3
    assert det.indexer.lookups == 1


def test_fetch_all_returns_every_tag():
    sim, ada = _ada()
    sim.run_process(
        ada.determinator.store("bar.xtc", {"p": b"pp", "m": b"mmm"})
    )
    objs = sim.run_process(ada.fetch_all("bar.xtc"))
    assert objs["p"].data == b"pp"
    assert objs["m"].data == b"mmm"


def test_store_virtual_and_metadata(setup):
    sim, _, det = setup
    sim.run_process(
        det.store("big.xtc", {"p": int(4 * GB), "m": int(6 * GB)})
    )
    assert det.plfs.subset_nbytes("big.xtc", "p") == int(4 * GB)
    assert det.plfs.container_nbytes("big.xtc") == int(10 * GB)
    assert det.plfs.tags("big.xtc") == ["m", "p"]


def test_dispatch_counters(setup):
    sim, _, det = setup
    sim.run_process(det.store("bar.xtc", {"p": b"12345", "m": b"123"}))
    assert det.metrics.query("dispatcher_bytes_total") == {
        'dispatcher_bytes_total{tag="m"}': 3,
        'dispatcher_bytes_total{tag="p"}': 5,
    }


def test_retriever_counts_bytes(setup):
    sim, _, det = setup
    sim.run_process(det.store("bar.xtc", {"p": b"12345"}))
    sim.run_process(det.fetch("bar.xtc", "p"))
    assert det.metrics.value("retriever_bytes_total") == 5.0


def test_parallel_subset_fetch_overlaps():
    """fetch_all completes in ~max(subset times), not their sum."""
    sim, ada = _ada()
    sim.run_process(
        ada.determinator.store(
            "big.xtc", {"p": int(300 * MB), "m": int(126 * MB)}
        )
    )
    t0 = sim.now
    sim.run_process(ada.fetch_all("big.xtc"))
    elapsed = sim.now - t0
    # HDD subset (1.0 s) dominates; SSD subset (0.1 s) hides inside.
    assert elapsed == pytest.approx(1.0, rel=0.1)

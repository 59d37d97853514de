"""Tests for PLFS container integrity checking."""

import pytest

from repro.fs import LocalFS, PLFS
from repro.sim import Simulator
from repro.storage import NVME_SSD_256GB, WD_1TB_HDD
from tests.fs.plfs_writes import commit_run


@pytest.fixture
def plfs():
    sim = Simulator()
    fs = PLFS(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        metadata_backend="ssd",
    )
    sim.run_process(commit_run(fs, "bar", [("p", b"pppp")], "ssd"))
    sim.run_process(commit_run(fs, "bar", [("m", b"mm")], "hdd"))
    sim.run_process(commit_run(fs, "baz", [("p", b"x")], "ssd"))
    return sim, fs


def test_healthy_containers_pass(plfs):
    _, fs = plfs
    report = fs.fsck()
    assert report["ok"]
    assert report["missing"] == []
    assert report["size_mismatch"] == []
    assert report["orphaned"] == []


def test_missing_chunk_detected(plfs):
    _, fs = plfs
    fs.backends["ssd"].delete("bar.plfs/subset.p/data.0")
    report = fs.fsck("bar")
    assert not report["ok"]
    assert report["missing"] == ["bar.plfs/subset.p/data.0"]


def test_size_mismatch_detected(plfs):
    _, fs = plfs
    fs.backends["hdd"].store.put("bar.plfs/subset.m/data.0", data=b"wrong-size")
    report = fs.fsck("bar")
    assert report["size_mismatch"] == ["bar.plfs/subset.m/data.0"]


def test_orphan_detected(plfs):
    _, fs = plfs
    fs.backends["ssd"].store.put("bar.plfs/subset.z/data.9", data=b"lost")
    report = fs.fsck("bar")
    assert report["orphaned"] == ["ssd:bar.plfs/subset.z/data.9"]
    assert not report["ok"]


def test_scoped_fsck_ignores_other_containers(plfs):
    _, fs = plfs
    fs.backends["ssd"].delete("baz.plfs/subset.p/data.0")
    assert fs.fsck("bar")["ok"]
    assert not fs.fsck("baz")["ok"]
    assert not fs.fsck()["ok"]  # global scan sees it


def test_fsck_after_spilled_ingest():
    """A spill-completed ingest is still fully consistent."""
    from repro.core import ADA
    from repro.storage import DevicePower, DeviceSpec
    from repro.units import mbps
    from repro.workloads import build_workload

    workload = build_workload(natoms=1000, nframes=4, seed=201)
    sim = Simulator()
    tiny_ssd = DeviceSpec(
        name="tiny", read_bw=mbps(1000), write_bw=mbps(1000),
        seek_latency_s=0.0, capacity=1000,
        power=DevicePower(active_w=1.0, idle_w=0.5),
    )
    ada = ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, tiny_ssd, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
    )
    sim.run_process(ada.ingest("s.xtc", workload.pdb_text, workload.xtc_blob))
    assert ada.determinator.dispatcher.spills
    assert ada.plfs.fsck()["ok"]

"""Tests for dataset lifecycle: deletion frees space everywhere."""

import pytest

from repro.core import ADA
from repro.errors import ContainerError, FileNotFoundInFSError, LabelIndexError
from repro.fs import LocalFS, PVFS, StorageTarget
from repro.sim import Simulator
from repro.storage import Device, NVME_SSD_256GB, WD_1TB_HDD
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=1200, nframes=6, seed=141)


def _local_ada(sim):
    return ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
    )


def test_localfs_delete_frees_capacity():
    sim = Simulator()
    fs = LocalFS(sim, NVME_SSD_256GB, name="ssd")
    sim.run_process(fs.write("f", nbytes=10**9))
    assert fs.device.used_bytes == pytest.approx(1e9)
    assert fs.delete("f") == 10**9
    assert fs.device.used_bytes == 0.0


def test_pvfs_delete_frees_every_target():
    sim = Simulator()
    targets = [
        StorageTarget(Device(sim, WD_1TB_HDD, name=f"h{i}")) for i in range(3)
    ]
    fs = PVFS(sim, targets)
    sim.run_process(fs.write("f", nbytes=3 * 10**8))
    assert sum(t.device.used_bytes for t in targets) == pytest.approx(3e8)
    fs.delete("f")
    assert all(t.device.used_bytes == 0.0 for t in targets)


def test_ada_remove_clears_everything(workload):
    sim = Simulator()
    ada = _local_ada(sim)
    receipt = sim.run_process(
        ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob)
    )
    total = sum(receipt.subset_sizes.values())
    used_before = sum(
        fs.device.used_bytes for fs in ada.plfs.backends.values()
    )
    freed = ada.remove("bar.xtc")
    used_after = sum(fs.device.used_bytes for fs in ada.plfs.backends.values())
    # Every byte it frees: subsets + index + label file.
    assert freed == used_before - used_after > total
    assert used_after < used_before - total + 1024
    # All metadata gone.
    with pytest.raises(ContainerError):
        ada.plfs.container_index("bar.xtc")
    with pytest.raises(LabelIndexError):
        ada.label_map("bar.xtc")


def test_reingest_after_remove(workload):
    """A removed name can be ingested again from chunk zero."""
    sim = Simulator()
    ada = _local_ada(sim)
    sim.run_process(ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob))
    ada.remove("bar.xtc")
    sim.run_process(ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob))
    records = ada.plfs.subset_records("bar.xtc", "p")
    assert [r.chunk for r in records] == [0]
    obj = sim.run_process(ada.fetch("bar.xtc", "p"))
    from repro.formats.xtc import decode_raw

    assert decode_raw(obj.data).nframes == workload.trajectory.nframes


def test_remove_one_of_many_leaves_others(workload):
    sim = Simulator()
    ada = _local_ada(sim)
    sim.run_process(ada.ingest("a.xtc", workload.pdb_text, workload.xtc_blob))
    sim.run_process(ada.ingest("b.xtc", workload.pdb_text, workload.xtc_blob))
    ada.remove("a.xtc")
    assert ada.tags("b.xtc") == ["m", "p"]
    obj = sim.run_process(ada.fetch("b.xtc", "p"))
    assert obj.nbytes > 0

"""Failure injection across the stack.

Verifies that the system degrades loudly and precisely: full devices,
corrupt label files, corrupt containers, truncated codec streams, and OOM
mid-pipeline all surface as the right exception at the right layer, and
never as silent corruption.
"""

import pytest

from repro.cluster import MemoryLedger
from repro.core import ADA
from repro.errors import (
    CodecError,
    ContainerError,
    FaultError,
    LabelIndexError,
    OutOfMemoryError,
    StorageFullError,
    TagNotFoundError,
)
from repro.fs import LocalFS
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, MB, mbps
from repro.vmd import VMDSession
from repro.workloads import build_workload


def _fs(sim, name, capacity=100 * GB):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(1000),
        write_bw=mbps(1000),
        seek_latency_s=0.0,
        capacity=capacity,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name, metadata_latency_s=0.0)


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=1200, nframes=5, seed=81)


def _ada(sim, ssd_capacity=100 * GB, hdd_capacity=100 * GB, **kwargs):
    return ADA(
        sim,
        backends={
            "ssd": _fs(sim, "ssd", capacity=ssd_capacity),
            "hdd": _fs(sim, "hdd", capacity=hdd_capacity),
        },
        **kwargs,
    )


def test_full_ssd_fails_ingest_loudly_without_spill(workload):
    """With nowhere left to spill -- the inactive tier is full too -- a
    full flash tier errors with StorageFull."""
    sim = Simulator()
    ada = _ada(sim, ssd_capacity=1000, hdd_capacity=1000)  # 1 KB each
    with pytest.raises(StorageFullError, match="hdd"):
        sim.run_process(
            ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob)
        )


def test_full_ssd_spills_to_hdd_by_default(workload):
    """Default behaviour: the protein subset spills to the HDD backend and
    the ingest completes, with the spill recorded for operators."""
    sim = Simulator()
    ada = _ada(sim, ssd_capacity=1000)
    receipt = sim.run_process(
        ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob)
    )
    assert set(receipt.subset_sizes) == {"p", "m"}
    records = ada.plfs.subset_records("bar.xtc", "p")
    assert all(r.backend == "hdd" for r in records)
    stats = ada.stats()
    assert stats["spills"] == [("bar.xtc", "p", "ssd", "hdd")]
    # Data still loads correctly from the spill location.
    obj = sim.run_process(ada.fetch("bar.xtc", "p"))
    from repro.formats.xtc import decode_raw

    assert decode_raw(obj.data).nframes == workload.trajectory.nframes


def test_failed_ingest_commits_no_tag():
    """An ingest commits all its tags or none: the MISC subset finds no
    room on the HDD, so the protein subset that already landed on the SSD
    is deleted again -- nothing of the dataset stays readable or stored,
    and every device is back at its pre-ingest capacity."""
    workload = build_workload(natoms=400, nframes=16, seed=81)
    sim = Simulator()
    ada = _ada(sim, hdd_capacity=4096)
    backends = ada.plfs.backends
    used = {name: fs.device.used_bytes for name, fs in backends.items()}
    with pytest.raises(StorageFullError, match="hdd"):
        sim.run_process(
            ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob)
        )
    with pytest.raises(ContainerError):
        sim.run_process(ada.fetch("bar.xtc", "p"))
    assert ada.metrics.value("device_ops_total", device="ssd", op="write") == 1
    assert not [
        key for fs in backends.values() for key in fs.store.walk()
        if "/subset." in key
    ]
    assert {name: fs.device.used_bytes for name, fs in backends.items()} == used
    assert ada.plfs.fsck()["ok"]


def test_corrupt_label_file_detected(workload):
    sim = Simulator()
    ada = _ada(sim)
    sim.run_process(ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob))
    ada._label_maps.clear()
    meta_fs = ada.plfs.backends[ada.plfs.metadata_backend]
    meta_fs.store.put("bar.xtc.label", data=b"garbage")
    with pytest.raises(LabelIndexError, match="corrupt"):
        ada.label_map("bar.xtc")


def test_corrupt_container_index_detected(workload):
    sim = Simulator()
    ada = _ada(sim)
    sim.run_process(ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob))
    ada.plfs._indexes.clear()
    meta_fs = ada.plfs.backends[ada.plfs.metadata_backend]
    meta_fs.store.put("bar.xtc.plfs/index", data=b"{broken\n")
    with pytest.raises(ContainerError, match="corrupt"):
        sim.run_process(ada.fetch("bar.xtc", "p"))


def test_unknown_tag_names_alternatives(workload):
    sim = Simulator()
    ada = _ada(sim)
    sim.run_process(ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob))
    with pytest.raises(TagNotFoundError, match="'m', 'p'"):
        sim.run_process(ada.fetch("bar.xtc", "z"))


def test_corrupt_xtc_refused_at_ingest(workload):
    sim = Simulator()
    ada = _ada(sim)
    broken = b"\xff\xff\xff\xff" + workload.xtc_blob[4:]
    with pytest.raises(CodecError):
        sim.run_process(ada.ingest("bad.xtc", workload.pdb_text, broken))


def test_truncated_subset_detected_at_load(workload):
    """A torn subset chunk fails decode, not silently loads garbage."""
    sim = Simulator()
    ada = _ada(sim)
    sim.run_process(ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob))
    path = ada.plfs.subset_records("bar.xtc", "p")[0].path
    store = ada.plfs.backends["ssd"].store
    store.put(path, data=store.data(path)[:-64])
    session = VMDSession(ada=ada)
    session.mol_new(workload.pdb_text)
    # The PLFS chunk checksum catches the tear before decode even starts
    # (at-rest damage cannot heal on re-read, so retries exhaust into a
    # FaultError); without checksums it would surface as a CodecError.
    with pytest.raises((CodecError, FaultError)):
        session.mol_addfile_tag("bar.xtc", "p")


def test_oom_mid_load_leaves_clean_error(workload):
    memory = MemoryLedger(int(0.8 * workload.raw_nbytes))
    session = VMDSession(memory=memory)
    session.mol_new(workload.pdb_text)
    with pytest.raises(OutOfMemoryError) as exc:
        session.mol_addfile(workload.xtc_blob)
    assert exc.value.capacity == memory.capacity
    # The ledger survives for inspection (what was resident at the kill).
    assert memory.in_use <= memory.capacity


def test_ingest_failure_does_not_leave_phantom_dataset(workload):
    """After a failed ingest, fetching the dataset fails cleanly too."""
    sim = Simulator()
    ada = _ada(sim, ssd_capacity=1000, hdd_capacity=1000)
    with pytest.raises(StorageFullError):
        sim.run_process(
            ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob)
        )
    # The protein subset never landed; a fetch reports the container state
    # rather than returning partial data silently.
    with pytest.raises((TagNotFoundError, ContainerError, KeyError)):
        sim.run_process(ada.fetch("bar.xtc", "p"))

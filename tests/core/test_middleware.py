"""Tests for the ADA middleware facade."""

import numpy as np
import pytest

from repro.cluster import ComputeNode, CpuSpec
from repro.core import ADA, LabelMap, TagPolicy
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.errors import ConfigurationError, LabelIndexError
from repro.formats import encode_xtc, write_pdb
from repro.formats.xtc import decode_raw
from repro.fs import LocalFS
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec, NodePower
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


def _ada(sim, storage_cpu=None):
    return ADA(
        sim,
        backends={"ssd": _fs(sim, "ssd", 3000.0), "hdd": _fs(sim, "hdd", 126.0)},
        storage_cpu=storage_cpu,
    )


@pytest.fixture(scope="module")
def dataset():
    system = build_gpcr_system(natoms_target=1000, protein_fraction=0.45, seed=11)
    traj = generate_trajectory(system, nframes=4, seed=12)
    return system, write_pdb(system.topology, system.coords), encode_xtc(traj), traj


def test_needs_backends():
    with pytest.raises(ConfigurationError):
        ADA(Simulator(), backends={})


def test_tiers_are_never_picked_by_alphabet():
    """Several backends need ``ssd``/``hdd`` names or a ``placement``;
    one backend is both tiers, whatever its name."""
    sim = Simulator()
    with pytest.raises(ConfigurationError, match="placement="):
        ADA(sim, backends={"a": _fs(sim, "a"), "b": _fs(sim, "b")})
    with pytest.raises(ConfigurationError, match="'hdd'"):
        ADA(sim, backends={"ssd": _fs(sim, "ssd"), "b": _fs(sim, "b")})
    lone = ADA(sim, backends={"disk": _fs(sim, "disk")})
    assert lone.placement.active_backend == lone.placement.inactive_backend == "disk"


def test_is_target_file():
    assert ADA.is_target_file("/data/run7/bar.xtc")
    assert ADA.is_target_file("FOO.PDB")
    assert not ADA.is_target_file("results.csv")
    assert not ADA.is_target_file("checkpoint.chk")


def test_ingest_splits_and_places(dataset):
    system, pdb_text, blob, traj = dataset
    sim = Simulator()
    ada = _ada(sim)
    receipt = sim.run_process(ada.ingest("bar.xtc", pdb_text, blob))
    assert receipt.backends == {"p": "ssd", "m": "hdd"}
    assert receipt.raw_nbytes == traj.nbytes
    assert ada.tags("bar.xtc") == ["m", "p"]
    # Sizes on each backend match the receipt.
    assert ada.subset_nbytes("bar.xtc", "p") == receipt.subset_sizes["p"]


def test_fetch_tag_decodes_to_protein_subset(dataset):
    system, pdb_text, blob, traj = dataset
    sim = Simulator()
    ada = _ada(sim)
    sim.run_process(ada.ingest("bar.xtc", pdb_text, blob))
    obj = sim.run_process(ada.fetch("bar.xtc", "p"))
    protein = decode_raw(obj.data)
    lm = ada.label_map("bar.xtc")
    assert protein.natoms == lm.atom_count("p")
    assert protein.nframes == traj.nframes
    # Coordinates equal the (lossy-roundtripped) protein slice of the raw.
    from repro.formats import decode_xtc

    raw = decode_xtc(blob)
    np.testing.assert_allclose(
        protein.coords, raw.coords[:, lm.indices("p"), :], atol=1e-5
    )


def test_fetch_all_returns_whole_dataset(dataset):
    system, pdb_text, blob, _ = dataset
    sim = Simulator()
    ada = _ada(sim)
    sim.run_process(ada.ingest("bar.xtc", pdb_text, blob))
    objs = sim.run_process(ada.fetch_all("bar.xtc"))
    total = sum(o.nbytes for o in objs.values())
    assert total == ada.container_nbytes("bar.xtc")


def test_label_map_persisted_and_reloadable(dataset):
    system, pdb_text, blob, _ = dataset
    sim = Simulator()
    ada = _ada(sim)
    sim.run_process(ada.ingest("bar.xtc", pdb_text, blob))
    ada._label_maps.clear()  # fresh middleware instance semantics
    lm = ada.label_map("bar.xtc")
    lm.validate()
    assert lm.natoms == system.natoms


def test_label_map_missing_raises():
    sim = Simulator()
    ada = _ada(sim)
    with pytest.raises(LabelIndexError):
        ada.label_map("ghost.xtc")


def test_ingest_charges_storage_cpu(dataset):
    """Pre-processing cost lands on the storage node, not a compute node."""
    system, pdb_text, blob, traj = dataset
    sim = Simulator()
    cpu = CpuSpec(
        name="storage-cpu", cores=6, ghz=1.7,
        decompress_rate=mbps(90), scan_rate=mbps(185), render_rate=mbps(550),
    )
    node = ComputeNode(
        sim, "sn0", cpu=cpu, memory_capacity=16 * GB,
        power=NodePower(idle_w=400.0, cpu_active_w=200.0),
    )
    ada = _ada(sim, storage_cpu=node)
    sim.run_process(ada.ingest("bar.xtc", pdb_text, blob))
    expected = traj.nbytes / mbps(90) + traj.nbytes / mbps(185)
    assert node.cpu_busy.busy_time() == pytest.approx(expected, rel=0.01)


def test_ingest_virtual_paper_scale():
    sim = Simulator()
    ada = _ada(sim)
    lm = LabelMap(natoms=100, ranges={"p": [(0, 42)], "m": [(42, 100)]})
    receipt = sim.run_process(
        ada.ingest_virtual(
            "huge.xtc",
            label_map=lm,
            subset_sizes={"p": int(42 * GB), "m": int(58 * GB)},
            compressed_nbytes=int(30 * GB),
        )
    )
    assert receipt.raw_nbytes == int(100 * GB)
    assert ada.subset_nbytes("huge.xtc", "p") == int(42 * GB)
    obj = sim.run_process(ada.fetch("huge.xtc", "p"))
    assert obj.is_virtual


def test_passthrough_for_non_target_files():
    sim = Simulator()
    ada = _ada(sim)
    sim.run_process(ada.passthrough_write("notes.txt", data=b"hello"))
    # Lands directly on the inactive backend, no container created.
    assert ada.plfs.backends["hdd"].exists("notes.txt")
    assert not ada.plfs.exists("notes.txt")


def test_custom_policy_flows_through(dataset):
    system, pdb_text, blob, _ = dataset
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": _fs(sim, "ssd"), "hdd": _fs(sim, "hdd")},
        policy=TagPolicy.per_class(),
    )
    sim.run_process(ada.ingest("bar.xtc", pdb_text, blob))
    assert set(ada.tags("bar.xtc")) >= {"p", "w", "l"}
    # Only 'p' is active by default: everything else lands on HDD.
    for tag in ada.tags("bar.xtc"):
        expected = "ssd" if tag == "p" else "hdd"
        records = ada.plfs.subset_records("bar.xtc", tag)
        assert all(r.backend == expected for r in records)

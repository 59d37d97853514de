"""End-to-end integration: the full story on real bytes.

Trajectory -> chunked .xtc -> ADA ingest (storage-side split) -> PLFS
containers on SSD/HDD backends -> VMD tag-selective load -> render ->
analysis.  Verifies data *integrity* across the entire stack, not just
timing shapes.
"""

import numpy as np
import pytest

from repro.analysis import rmsd_trajectory
from repro.core import ADA, TagPolicy
from repro.datagen import build_gpcr_system, generate_trajectory
from repro.errors import LabelIndexError
from repro.formats import decode_xtc, encode_xtc, write_pdb
from repro.formats.xtc import decode_raw
from repro.fs import LocalFS, PVFS, StorageTarget
from repro.sim import Simulator
from repro.storage import Device, NVME_SSD_256GB, PLEXTOR_SSD_256GB, WD_1TB_HDD
from repro.storage.raid import raid0_spec
from repro.units import GB
from repro.vmd import Animator, GeometryBuilder, VMDSession


def _local_ada(sim, **kwargs):
    return ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        **kwargs,
    )


@pytest.fixture(scope="module")
def world():
    """A full materialized world over LocalFS backends."""
    system = build_gpcr_system(natoms_target=2500, protein_fraction=0.44, seed=71)
    pdb_text = write_pdb(system.topology, system.coords)
    traj = generate_trajectory(system, nframes=12, seed=72)
    blob = encode_xtc(traj)

    sim = Simulator()
    ada = _local_ada(sim)
    sim.run_process(ada.ingest("run.xtc", pdb_text, blob))
    return system, pdb_text, blob, traj, sim, ada


def test_full_pipeline_data_integrity(world):
    """Coordinates survive codec -> split -> dispatch -> fetch -> merge."""
    system, pdb_text, blob, traj, sim, ada = world
    session = VMDSession(ada=ada)
    session.mol_new(pdb_text)
    session.mol_addfile_all("run.xtc")
    reference = decode_xtc(blob)  # lossy-roundtripped ground truth
    np.testing.assert_allclose(
        session.top.trajectory.coords, reference.coords, atol=1e-5
    )


def test_subset_load_renders_and_analyzes(world):
    system, pdb_text, blob, traj, sim, ada = world
    session = VMDSession(ada=ada)
    session.mol_new(pdb_text)
    session.mol_addfile_tag("run.xtc", "p")
    # Render every frame.
    geo = GeometryBuilder(session.top).render_all()
    assert len(geo) == traj.nframes
    # Replay with a cache.
    stats = Animator(session.top, cache_frames=8).rock(passes=2)
    assert stats.frames_shown == 2 * traj.nframes
    # Analyze.
    series = rmsd_trajectory(session.top.trajectory)
    assert series[0] == pytest.approx(0.0, abs=1e-5)


def test_backend_bytes_land_where_placed(world):
    system, pdb_text, blob, traj, sim, ada = world
    ssd = ada.plfs.backends["ssd"]
    hdd = ada.plfs.backends["hdd"]
    p_records = ada.plfs.subset_records("run.xtc", "p")
    m_records = ada.plfs.subset_records("run.xtc", "m")
    assert all(r.backend == "ssd" for r in p_records)
    assert all(r.backend == "hdd" for r in m_records)
    assert all(ssd.exists(r.path) for r in p_records)
    assert all(hdd.exists(r.path) for r in m_records)


def test_subset_volumes_sum_to_raw(world):
    system, pdb_text, blob, traj, sim, ada = world
    p = ada.subset_nbytes("run.xtc", "p")
    m = ada.subset_nbytes("run.xtc", "m")
    # Raw container overhead per subset is a few dozen bytes.
    assert p + m == pytest.approx(traj.nbytes, rel=0.01)


def test_streaming_ingest_into_ada():
    """Chunks of a running simulation stream straight into ADA: the first
    establishes the dataset, the rest append under its stored label map."""
    system = build_gpcr_system(natoms_target=1000, seed=61)
    pdb_text = write_pdb(system.topology, system.coords)
    traj = generate_trajectory(system, nframes=15, seed=4)
    chunks = [encode_xtc(traj.slice_frames(a, a + 5)) for a in (0, 5, 10)]

    sim = Simulator()
    ada = _local_ada(sim)
    sim.run_process(ada.ingest("stream.xtc", pdb_text, chunks[0]))
    for blob in chunks[1:]:
        sim.run_process(ada.ingest_append("stream.xtc", blob))

    # The protein subset now holds all 15 frames across 3 PLFS chunks.
    assert len(ada.plfs.subset_records("stream.xtc", "p")) == 3
    protein = decode_raw(sim.run_process(ada.fetch("stream.xtc", "p")).data)
    assert protein.nframes == 15
    assert protein.natoms == ada.label_map("stream.xtc").atom_count("p")


def test_append_before_ingest_rejected():
    sim = Simulator()
    ada = _local_ada(sim)
    with pytest.raises(LabelIndexError):
        sim.run_process(ada.ingest_append("ghost.xtc", b"whatever"))


def test_full_pipeline_over_striped_pvfs():
    """The cluster shape, materialized: PLFS over two PVFS pools."""
    system = build_gpcr_system(natoms_target=1500, seed=73)
    pdb_text = write_pdb(system.topology, system.coords)
    traj = generate_trajectory(system, nframes=6, seed=74)

    sim = Simulator()

    def pool(member, n, prefix):
        return PVFS(
            sim,
            [
                StorageTarget(Device(sim, raid0_spec(member, 2, name=f"{prefix}{i}")))
                for i in range(n)
            ],
            name=f"pvfs:{prefix}",
            stripe_size=8 * 1024,  # small stripes so a tiny subset spreads
        )

    ada = ADA(
        sim,
        backends={
            "ssd": pool(PLEXTOR_SSD_256GB, 3, "s"),
            "hdd": pool(WD_1TB_HDD, 3, "h"),
        },
    )
    sim.run_process(ada.ingest("clu.xtc", pdb_text, encode_xtc(traj)))
    session = VMDSession(ada=ada)
    session.mol_new(pdb_text)
    load = session.mol_addfile_tag("clu.xtc", "p")
    assert load.trajectory.nframes == 6
    # Stripes actually landed on multiple SSD targets.
    used = [t.device.used_bytes for t in ada.plfs.backends["ssd"].targets]
    assert sum(1 for u in used if u > 0) >= 2


def test_per_class_policy_end_to_end():
    system = build_gpcr_system(natoms_target=2000, seed=75)
    pdb_text = write_pdb(system.topology, system.coords)
    traj = generate_trajectory(system, nframes=5, seed=76)

    sim = Simulator()
    ada = _local_ada(sim, policy=TagPolicy.per_class())
    sim.run_process(ada.ingest("fine.xtc", pdb_text, encode_xtc(traj)))
    session = VMDSession(ada=ada)
    session.mol_new(pdb_text)
    session.mol_addfile_tag("fine.xtc", "w")  # water only
    from repro.formats import AtomClass

    expected = system.topology.counts_by_class()[AtomClass.WATER]
    assert session.top.loaded_natoms == expected

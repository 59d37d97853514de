"""Breadth tests over smaller surfaces the main suites touch lightly."""

import pytest

from repro.harness import run_point, small_cluster, ssd_server
from repro.units import GB, MB


def test_cluster_energy_includes_storage_nodes():
    """Fig. 9 runs draw power on six storage nodes, not just the client."""
    cluster = run_point(small_cluster, "D-trad", 5_006)
    server = run_point(ssd_server, "D-trad", 5_006)
    # Same CPU work, but the cluster's turnaround window multiplies across
    # seven nodes (1 compute + 6 storage).
    assert cluster.energy_j > 3 * server.energy_j


def test_cached_fs_serves_virtual_objects():
    from repro.fs import LocalFS
    from repro.fs.cache import CachedFS
    from repro.sim import Simulator
    from repro.storage import NVME_SSD_256GB

    sim = Simulator()
    fs = CachedFS(LocalFS(sim, NVME_SSD_256GB, name="s"), 1 * GB)
    sim.run_process(fs.write("v", nbytes=int(10 * MB)))
    obj = sim.run_process(fs.read("v"))
    assert obj.is_virtual and obj.nbytes == int(10 * MB)
    # write-through populated the cache
    assert fs.metrics.value("page_cache_hits_total", fs=fs.name) == 1


def test_vfs_nbytes_and_exists_on_plain_mounts():
    from repro.fs import LocalFS, VFS
    from repro.sim import Simulator
    from repro.storage import NVME_SSD_256GB

    sim = Simulator()
    vfs = VFS(sim)
    vfs.mount("/mnt/x", LocalFS(sim, NVME_SSD_256GB, name="x"))
    with vfs.open("/mnt/x/a/b", "w") as fh:
        fh.write(b"12345")
    assert vfs.exists("/mnt/x/a/b")
    assert vfs.nbytes("/mnt/x/a/b") == 5
    assert not vfs.exists("/mnt/x/ghost")


def test_table_without_title():
    from repro.harness.report import Table

    t = Table(["a"])
    t.add_row("1")
    assert t.render().splitlines()[0].startswith("a")


def test_run_result_label_property():
    r = run_point(ssd_server, "D-ada-p", 626)
    assert r.label == "D-ADA (protein)"


def test_frame_info_keyframe_flag_surface():
    from repro.formats import encode_xtc, iter_frame_infos
    from repro.workloads import build_workload

    blob = build_workload(natoms=400, nframes=6, seed=215).xtc_blob
    infos = list(iter_frame_infos(blob))
    assert infos[0].is_keyframe
    assert not infos[1].is_keyframe  # default interval is 100


def test_ada_stats_shape():
    from repro.core import ADA
    from repro.fs import LocalFS
    from repro.sim import Simulator
    from repro.storage import NVME_SSD_256GB, WD_1TB_HDD
    from repro.workloads import build_workload

    workload = build_workload(natoms=800, nframes=3, seed=216)
    sim = Simulator()
    ada = ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
    )
    sim.run_process(ada.ingest("s.xtc", workload.pdb_text, workload.xtc_blob))
    sim.run_process(ada.fetch("s.xtc", "p"))
    stats = ada.stats()
    assert stats["datasets"] == ["s.xtc"]
    assert stats["indexer_lookups"] == 1
    assert ada.metrics.value("retriever_bytes_total") > 0
    assert set(ada.metrics.query("dispatcher_bytes_total")) == {
        'dispatcher_bytes_total{tag="m"}',
        'dispatcher_bytes_total{tag="p"}',
    }
    assert stats["spills"] == []

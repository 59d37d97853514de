"""The window write schedule moves *when* and *where* bytes land, never
*which* bytes.

Grouping a window's chunk runs by backend and committing them with one
index append changed the order of device requests, and moving the index
log and label file to the active tier changed their backend, not the
stored state: every object -- subset chunks, the index log (its lines
still in each window's sorted-tag order) and the label file -- hashes to
the digest below whatever backend holds it, recorded from the tree before
those changes, the way ``tests/formats/test_encode_golden.py`` pins the
codec.  They were re-recorded once for the entropy stage, when it moved
to Huffman-only deflate: every xtc chunk kept its frames, its headers but
the payload length, its inflated bodies and its decoded coordinates, no
frame's stored flag flipped, and the index logs differ only in chunk
sizes and CRCs.  Run this file as a script with ``PYTHONPATH=<tree>/src``
to print a tree's digests.
"""

import hashlib

import pytest

from repro.cluster.node import ComputeNode
from repro.core import ADA, IngestPipelineConfig
from repro.formats.xtc import FrameIndex, encode_xtc
from repro.fs import PLFS, LocalFS
from repro.harness.calibration import E5_2603V4
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.storage.hdd import WD_1TB_HDD
from repro.storage.power import NodePower
from repro.storage.ssd import NVME_SSD_256GB
from repro.units import GB, mbps
from repro.workloads import build_workload

#: scenario -> (objects stored on all backends, sha256 over their sorted
#: "path sha256(data)" lines).
GOLDEN = {
    "e2e_smoke_ingest_stream": (
        98, "3043ae9b980346e6a5bfac4cf65afe1a8af7bff9b6a8ffe0af397dd3084d208f"
    ),
    "two_tier_four_tags": (
        34, "081cfa3bbdb6cd68fffd1a16965471ceeded9c6680fb439a707b0449c3af4012"
    ),
}


def _e2e_smoke_ingest_stream():
    """``benchmarks/e2e`` ``ingest_stream`` at ``--smoke`` size, seed 7:
    600 atoms, 12 segments of 16 frames (cut at keyframes, no re-encode),
    8-frame windows, xtc subsets with LOD siblings on the paper's SSD/HDD
    pair; the first segment carries the structure, the rest append."""
    workload = build_workload(natoms=600, nframes=192, seed=7, keyframe_interval=8)
    blob = workload.xtc_blob
    offsets = [info.offset for info in FrameIndex.build(blob).infos[::16]]
    segments = [blob[lo:hi] for lo, hi in zip(offsets, offsets[1:] + [len(blob)])]
    sim = Simulator()
    cpu = ComputeNode(
        sim, "storage0", E5_2603V4, memory_capacity=64 << 30,
        power=NodePower(idle_w=330.0, cpu_active_w=60.0, io_active_w=10.0),
    )
    ada = ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        storage_cpu=cpu,
        subset_format="xtc",
        lod_precision=12.5,
        ingest_config=IngestPipelineConfig(window_frames=8, depth=4),
    )
    for op, segment in enumerate(segments):
        sim.run_process(
            ada.ingest_stream(
                "stream.xtc", segment,
                pdb_text=workload.pdb_text if op == 0 else None,
            )
        )
    return ada, "stream.xtc"


def _two_tier_four_tags():
    """Raw subsets plus LOD siblings (``lod:m``/``lod:p``/``m``/``p``,
    interleaving HDD and SSD in tag order) in 4-frame windows: a fresh
    stream, then the same trajectory appended."""
    workload = build_workload(natoms=300, nframes=32, seed=11, keyframe_interval=4)
    sim = Simulator()

    def fs(name):
        spec = DeviceSpec(
            name=name, read_bw=mbps(1000), write_bw=mbps(200),
            seek_latency_s=8e-3, capacity=100 * GB,
            power=DevicePower(active_w=5.0, idle_w=1.0),
        )
        return LocalFS(sim, spec, name=name)

    ada = ADA(sim, backends={"ssd": fs("ssd"), "hdd": fs("hdd")}, lod_precision=12.5)
    config = IngestPipelineConfig(window_frames=4, depth=3)
    halves = [
        encode_xtc(workload.trajectory.slice_frames(lo, lo + 16), keyframe_interval=4)
        for lo in (0, 16)
    ]
    sim.run_process(
        ada.ingest_stream(
            "four.xtc", halves[0], pdb_text=workload.pdb_text, config=config
        )
    )
    sim.run_process(ada.ingest_stream("four.xtc", halves[1], config=config))
    return ada, "four.xtc"


SCENARIOS = {
    "e2e_smoke_ingest_stream": _e2e_smoke_ingest_stream,
    "two_tier_four_tags": _two_tier_four_tags,
}


def _homes(ada):
    """path -> the backend holding it, over every backend."""
    return {
        path: name
        for name, fs in ada.plfs.backends.items()
        for path in fs.store.walk()
    }


def stored_digest(ada):
    lines = sorted(
        f"{path} {hashlib.sha256(fs.store.data(path)).hexdigest()}\n"
        for fs in ada.plfs.backends.values()
        for path in fs.store.walk()
    )
    return len(lines), hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_every_stored_object_matches_the_recorded_digest(scenario):
    ada, logical = SCENARIOS[scenario]()
    assert stored_digest(ada) == GOLDEN[scenario]
    # Metadata sits on the active tier; every subset chunk where its tag
    # places, as before the metadata moved.
    active = ada.placement.active_backend
    for path, backend in _homes(ada).items():
        if path.endswith((".label", ".plfs/index")):
            assert backend == active, path
        else:
            tag = path.split("/subset.")[1].split("/")[0]
            assert backend == ada.placement.backend_for(tag), path
    assert ada.plfs.fsck(logical)["ok"]
    # A cold client finds the log without being told where it is.
    cold = PLFS(ada.sim, ada.plfs.backends)
    assert cold.container_index(logical) == ada.plfs.container_index(logical)


if __name__ == "__main__":
    for name, build in sorted(SCENARIOS.items()):
        print(f"    {name!r}: {stored_digest(build()[0])!r},")

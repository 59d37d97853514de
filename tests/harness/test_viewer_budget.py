"""The viewer's request budget, gated by exact counts.

What one viewer session costs is decided by how much work it does that
nobody asked for: frames decoded to serve one, structure texts parsed
again, frame arrays rebuilt to append to them.  Those are *counts* --
deterministic at a fixed seed -- so this gate (marked ``bench``: CI's
``pytest -m bench`` step runs it) replays the end-to-end benchmark's
``playback_scrub`` session script at its smoke size (600 atoms, 64 frames
in 4-frame chunks, 3 forward windows of 4 chunks, 4 coarse-tier window
scrubs, 4 single-frame seeks through 32-frame streaming windows) and pins,
per session:

==========================  ======  ==============================
count                        now     before the viewer budget work
==========================  ======  ==============================
frames through the decoder    256     336 (each of the 3 seek misses
                                      decoded its 32-frame window)
  of them for the 4 seeks      16      96
``parse_pdb`` calls             1       3 (once per ``mol new``)
``FrameIndex.build`` calls     28      28 (unchanged: one per blob)
frames copied by appends      104     308 (the frame array was
                                      re-concatenated per append)
==========================  ======  ==============================

The script is rebuilt here from the benchmark's description of it; nothing
under ``benchmarks/e2e`` is imported.
"""

import random

import numpy as np
import pytest

from repro import build_workload
from repro.cluster.node import ComputeNode
from repro.core import ADA, IngestPipelineConfig
from repro.formats import xtc as xtc_mod
from repro.formats.topology import AtomClass
from repro.formats.xtc import FrameIndex
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.harness.calibration import E5_2603V4
from repro.sim import Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.storage.power import NodePower
from repro.storage.ssd import NVME_SSD_256GB
from repro.vmd import Animator, TrajectoryLoader, VMDSession
from repro.vmd import session as session_mod
from repro.vmd.streaming import StreamingTrajectory

pytestmark = pytest.mark.bench

SEED = 7
LOGICAL, TAG = "scrub.xtc", "p"
#: ``playback_scrub``'s smoke sizes.
NATOMS, NFRAMES, CHUNK_FRAMES, WINDOW_CHUNKS = 600, 64, 4, 4
FORWARD_WINDOWS, LOD_SEEKS, FRAME_SEEKS = 3, 4, 4
STREAM_WINDOW_FRAMES = 32

FRAMES_DECODED = 256
SEEK_FRAMES_DECODED = 16
PARSE_CALLS = 1
INDEX_BUILDS = 28
FRAMES_COPIED = 104


@pytest.fixture(scope="module")
def deployment():
    workload = build_workload(
        natoms=NATOMS, nframes=NFRAMES, seed=SEED, keyframe_interval=CHUNK_FRAMES
    )
    sim = Simulator()
    ada = ADA(
        sim,
        backends={
            "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
            "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
        },
        storage_cpu=ComputeNode(
            sim, "storage0", E5_2603V4, memory_capacity=64 << 30,
            power=NodePower(idle_w=330.0, cpu_active_w=60.0, io_active_w=10.0),
        ),
        block_cache=BlockCache(sim),
        prefetch=True,
        subset_format="xtc",
        lod_precision=12.5,
    )
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
            config=IngestPipelineConfig(window_frames=CHUNK_FRAMES),
        )
    )
    rng = random.Random(f"{SEED}/scrub")
    nwindows = NFRAMES // CHUNK_FRAMES // WINDOW_CHUNKS
    lod_windows = [rng.randrange(nwindows) for _ in range(LOD_SEEKS)]
    seek_frames = [rng.randrange(NFRAMES) for _ in range(FRAME_SEEKS)]
    yield workload, ada, lod_windows, seek_frames
    ada.preprocessor.close()


class _Counts:
    def __init__(self, monkeypatch):
        self.decoded = self.parses = self.builds = 0
        real_kernel = xtc_mod._decode_gof_ints
        real_parse = session_mod.parse_pdb
        real_build = FrameIndex.build.__func__

        def kernel(view, infos, natoms):
            self.decoded += len(infos)
            return real_kernel(view, infos, natoms)

        def parse(text):
            self.parses += 1
            return real_parse(text)

        def build(cls, data):
            self.builds += 1
            return real_build(cls, data)

        monkeypatch.setattr(xtc_mod, "_decode_gof_ints", kernel)
        monkeypatch.setattr(session_mod, "parse_pdb", parse)
        monkeypatch.setattr(FrameIndex, "build", classmethod(build))


def _session(deployment, counts):
    """One ``playback_scrub`` slice; returns what the verify pass keeps."""
    workload, ada, lod_windows, seek_frames = deployment
    sim = ada.sim
    session = VMDSession(ada)
    loader = TrajectoryLoader()
    indices = ada.label_map(LOGICAL).indices(TAG)

    # -- open the subset, exact then coarse
    session.mol_new(workload.pdb_text, name="full")
    full = session.mol_addfile_tag(LOGICAL, TAG)
    session.mol_new(workload.pdb_text, name="lod")
    coarse = session.mol_addfile_tag(LOGICAL, TAG, precision="lod")

    # -- forward playback: fetch, decode, build every frame
    view = session.mol_new(workload.pdb_text, name="view")
    animator = None
    for w in range(FORWARD_WINDOWS):
        chunks = list(range(w * WINDOW_CHUNKS, (w + 1) * WINDOW_CHUNKS))
        first = view.num_frames
        for obj in sim.run_process(ada.fetch_chunks(LOGICAL, TAG, chunks)):
            view.add_frames(
                loader.load_subset(obj.data).trajectory, atom_indices=indices
            )
        if animator is None:
            animator = Animator(view, cache_frames=64)
        for iframe in range(first, view.num_frames):
            animator.goto(iframe)

    # -- random scrub on the coarse tier
    for w in lod_windows:
        chunks = list(range(w * WINDOW_CHUNKS, (w + 1) * WINDOW_CHUNKS))
        for obj in sim.run_process(
            ada.fetch_chunks(LOGICAL, TAG, chunks, precision="lod")
        ):
            loader.load_subset(obj.data)

    # -- single-frame seeks through the streaming window cache
    exact = sim.run_process(ada.fetch(LOGICAL, TAG))
    lod = sim.run_process(ada.fetch(LOGICAL, TAG, precision="lod"))
    before_seeks = counts.decoded
    stream = StreamingTrajectory(
        exact.data, window_frames=STREAM_WINDOW_FRAMES, max_windows=4,
        lod_bytes=lod.data, lod_max_error=lod.max_error,
    )
    served = []
    for k, iframe in enumerate(seek_frames):
        stream.precision = "full" if k < FRAME_SEEKS // 2 else "lod"
        served.append(stream.frame(iframe).coords)
    stream.close()
    ada.block_cache.invalidate()  # the next slice is a fresh session
    return {
        "full": full, "coarse": coarse, "view": view, "stream": stream,
        "served": served, "seek_decoded": counts.decoded - before_seeks,
        "animator": animator,
    }


def test_viewer_session_budget(deployment, monkeypatch):
    counts = _Counts(monkeypatch)
    kept = _session(deployment, counts)
    view, stream = kept["view"], kept["stream"]
    frame_nbytes = view.loaded_natoms * 12

    assert counts.decoded == FRAMES_DECODED
    assert kept["seek_decoded"] == stream.frames_decoded == SEEK_FRAMES_DECODED
    assert counts.parses == PARSE_CALLS
    assert counts.builds == INDEX_BUILDS
    assert view.copied_nbytes == FRAMES_COPIED * frame_nbytes
    assert kept["full"].trajectory.nframes == NFRAMES  # adopted, not copied

    # The window accounting the benchmark reports did not move with it.
    assert stream.window_decodes + stream.window_hits == FRAME_SEEKS
    assert kept["animator"].misses == view.num_frames
    assert view.num_frames == FORWARD_WINDOWS * WINDOW_CHUNKS * CHUNK_FRAMES

    # A second session costs exactly the same: nothing leaked across.
    again = _Counts(monkeypatch)
    _session(deployment, again)
    assert (again.decoded, again.parses, again.builds) == (
        FRAMES_DECODED, PARSE_CALLS, INDEX_BUILDS,
    )


def test_viewer_session_output(deployment, monkeypatch):
    """The cheaper session shows the viewer the same frames."""
    workload, ada, _lod_windows, seek_frames = deployment
    kept = _session(deployment, _Counts(monkeypatch))
    p_idx = workload.system.topology.class_indices(AtomClass.PROTEIN)
    truth = workload.trajectory.coords[:, p_idx]
    tolerance = 1.0 / xtc_mod.DEFAULT_PRECISION + 1e-4
    lod_bound = ada.lod_bound(LOGICAL) + tolerance

    def worst(got, want):
        return float(np.abs(got.astype(np.float64) - want).max())

    view = kept["view"].trajectory.coords
    assert worst(kept["full"].trajectory.coords, truth) <= tolerance
    assert worst(kept["coarse"].trajectory.coords, truth) <= lod_bound
    assert worst(view, truth[: len(view)]) <= tolerance
    # The forward view is the exact open's leading frames, bit for bit.
    assert np.array_equal(view, kept["full"].trajectory.coords[: len(view)])
    for k, (iframe, coords) in enumerate(zip(seek_frames, kept["served"])):
        bound = tolerance if k < FRAME_SEEKS // 2 else lod_bound
        assert worst(coords, truth[iframe]) <= bound

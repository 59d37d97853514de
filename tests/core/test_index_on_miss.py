"""The indexer is paid only by reads that go to storage.

The indexer resolves a query's tags to dataset paths for the retriever
(paper §3.2); a window the block cache serves whole never uses those
paths.  So a single-node ``ADA`` read whose every chunk is resident skips
the 2 ms lookup and goes straight to the retriever's probe, in the same
simulated instant as its residency peek.  A partial hit, a read of a
removed dataset and any read on a shard node pay the lookup as before.
"""

import pytest

from repro.cluster.shard import ShardNode, ShardedADA
from repro.core import ADA
from repro.core.ingest import IngestPipelineConfig
from repro.core.lod import DEFAULT_LOD_PRECISION, lod_max_error, lod_tag
from repro.errors import ContainerError
from repro.fs.cache import L1_BANDWIDTH, BlockCache
from repro.fs.localfs import LocalFS
from repro.fs.plfs import PLFS
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

LOGICAL, TAG = "traj.xtc", "p"
LOOKUP_S = 2e-3


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=200, nframes=12, seed=3, keyframe_interval=4)


def _ssd(sim, name="ssd"):
    return {"ssd": LocalFS(sim, NVME_SSD_256GB, name=name)}


def _stored(ada, workload):
    """Three chunks per tag: the trajectory streamed in 4-frame windows."""
    ada.sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob, workload.pdb_text,
            config=IngestPipelineConfig(window_frames=4),
        )
    )
    return ada


def _ada(workload, **kwargs):
    sim = Simulator()
    return _stored(
        ADA(sim, backends=_ssd(sim), block_cache=BlockCache(sim), **kwargs),
        workload,
    )


def _timed(ada, read):
    """Run one read; return its result, simulated duration and lookups."""
    sim, indexer = ada.sim, ada.determinator.indexer
    t0, before = sim.now, indexer.lookups
    result = sim.run_process(read)
    return result, sim.now - t0, indexer.lookups - before


def _avoided(ada):
    return ada.metrics.value("indexer_lookups_avoided_total")


def test_a_resident_window_skips_the_lookup(workload):
    ada = _ada(workload)
    window = [0, 1]
    cold, cold_s, cold_lookups = _timed(ada, ada.fetch_chunks(LOGICAL, TAG, window))
    assert cold_lookups == 1 and cold_s > LOOKUP_S
    assert _avoided(ada) == 0
    warm, warm_s, warm_lookups = _timed(ada, ada.fetch_chunks(LOGICAL, TAG, window))
    assert warm_lookups == 0
    assert _avoided(ada) == 1
    # the cache's one wait for the window is the whole cost
    wait = sum(obj.nbytes / L1_BANDWIDTH for obj in warm)
    assert warm_s == pytest.approx(wait, rel=1e-9) and warm_s < LOOKUP_S
    assert [o.data for o in warm] == [o.data for o in cold]


def test_a_partial_hit_pays_the_lookup_and_reads_only_the_miss(
    workload, monkeypatch
):
    ada = _ada(workload)
    ada.sim.run_process(ada.fetch_chunks(LOGICAL, TAG, [0, 1]))
    runs = []
    original = PLFS.read_chunk_run

    def recording(self, records):
        runs.append([r.chunk for r in records])
        return original(self, records)

    monkeypatch.setattr(PLFS, "read_chunk_run", recording)
    got, elapsed, lookups = _timed(ada, ada.fetch_chunks(LOGICAL, TAG, [0, 1, 2]))
    assert lookups == 1 and elapsed > LOOKUP_S
    assert _avoided(ada) == 0
    assert runs == [[2]]
    assert len(got) == 3


def test_a_resident_subset_fetch_skips_the_lookup(workload):
    ada = _ada(workload)
    cold, _, cold_lookups = _timed(ada, ada.fetch(LOGICAL, TAG))
    warm, warm_s, warm_lookups = _timed(ada, ada.fetch(LOGICAL, TAG))
    assert (cold_lookups, warm_lookups) == (1, 0)
    assert _avoided(ada) == 1
    assert warm_s < LOOKUP_S
    assert warm.data == cold.data


def test_a_removed_dataset_still_raises_from_the_lookup(workload):
    ada = _ada(workload)
    sim = ada.sim
    sim.run_process(ada.fetch_chunks(LOGICAL, TAG, [0, 1]))
    ada.remove(LOGICAL)
    t0 = sim.now
    with pytest.raises(ContainerError):
        sim.run_process(ada.fetch_chunks(LOGICAL, TAG, [0, 1]))
    assert sim.now - t0 == pytest.approx(LOOKUP_S)
    assert _avoided(ada) == 0


def test_a_resident_lod_window_skips_the_lookup_and_keeps_its_tier(workload):
    ada = _ada(workload, lod_precision=DEFAULT_LOD_PRECISION)
    read = lambda: ada.fetch_chunks(LOGICAL, TAG, [0, 1], precision="lod")
    cold, _, cold_lookups = _timed(ada, read())
    warm, warm_s, warm_lookups = _timed(ada, read())
    assert (cold_lookups, warm_lookups) == (1, 0)
    assert warm_s < LOOKUP_S
    assert ada.block_cache.peek((LOGICAL, lod_tag(TAG), 0))
    bound = lod_max_error(DEFAULT_LOD_PRECISION)
    for obj in warm:
        assert (obj.tier, obj.max_error) == ("lod", bound)
    assert [o.data for o in warm] == [o.data for o in cold]


def test_a_shard_node_still_pays_the_lookup(workload):
    sim = Simulator()
    node = ShardNode.build(
        sim, "node0", backends=_ssd(sim), block_cache=BlockCache(sim)
    )
    front = _stored(ShardedADA(sim, [node]), workload)
    sim.run_process(front.fetch_chunks(LOGICAL, TAG, [0, 1]))
    _, elapsed, lookups = _timed(
        node.ada, front.fetch_chunks(LOGICAL, TAG, [0, 1])
    )
    assert node.ada.block_cache.peek((LOGICAL, TAG, 1))
    assert lookups == 1 and elapsed > LOOKUP_S
    assert node.ada.metrics.value(
        "indexer_lookups_avoided_total", shard="node0"
    ) == 0

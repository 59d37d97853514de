"""Chaos properties over the *pipelined* read path.

ISSUE satellite (b): with the tiered block cache, request coalescing, and
the adaptive prefetcher all enabled, a transient-only fault plan must be
invisible to playback -- every byte the consumer sees is identical to a
fault-free run of the plain (non-pipelined) reader, across seeds.  The
speculative path additionally has to *absorb* failures: a prefetch that
dies must never crash playback, only cost the overlap.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ADA
from repro.errors import PermanentFaultError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.formats.xtc import encode_raw
from repro.fs import LocalFS
from repro.fs.cache import BlockCache
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, mbps
from repro.workloads import build_workload

pytestmark = pytest.mark.chaos

NCHUNKS = 10
FRAMES_PER_CHUNK = 2
WINDOW = 2


def _fs(sim, name):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(1000),
        write_bw=mbps(1000),
        seek_latency_s=0.0,
        capacity=100 * GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name, metadata_latency_s=0.0)


@pytest.fixture(scope="module")
def dataset():
    workload = build_workload(
        natoms=400, nframes=NCHUNKS * FRAMES_PER_CHUNK, seed=19
    )
    blobs = [
        encode_raw(
            workload.trajectory.slice_frames(
                i * FRAMES_PER_CHUNK, (i + 1) * FRAMES_PER_CHUNK
            )
        )
        for i in range(NCHUNKS)
    ]
    return workload.pdb_text, blobs


def _ingested_ada(dataset, pipelined=True, prefetch=True, retry_policy=None):
    pdb_text, blobs = dataset
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": _fs(sim, "ssd"), "hdd": _fs(sim, "hdd")},
        block_cache=BlockCache(sim) if pipelined else None,
        prefetch=pipelined and prefetch,
        retry_policy=retry_policy,
    )
    sim.run_process(ada.ingest("bar.xtc", pdb_text, blobs[0]))
    for blob in blobs[1:]:
        sim.run_process(ada.ingest_append("bar.xtc", blob))
    return sim, ada


def _playback_digest(sim, ada):
    """Windowed playback of the protein subset, then a whole-subset read
    of the misc tag -- every consumer shape the pipeline accelerates."""
    digest = hashlib.sha256()

    def consume():
        for start in range(0, NCHUNKS, WINDOW):
            objs = yield from ada.fetch_chunks(
                "bar.xtc", "p", list(range(start, start + WINDOW))
            )
            for obj in objs:
                digest.update(obj.data)
            yield sim.timeout(0.002)  # decode time the prefetcher overlaps

    sim.run_process(consume())
    digest.update(sim.run_process(ada.fetch("bar.xtc", "m")).data)
    return digest.hexdigest()


@pytest.fixture(scope="module")
def baseline_digest(dataset):
    sim, ada = _ingested_ada(dataset, pipelined=False)
    return _playback_digest(sim, ada)


def _attach_everywhere(ada, seed, spec):
    plans = []
    for name, backend in ada.plfs.backends.items():
        plan = FaultPlan(seed=seed, sites={f"fs:{name}": spec})
        plan.attach(backend)
        plans.append(plan)
    return plans


# -- the property -------------------------------------------------------------


def test_pipelined_fault_free_matches_plain_reader(dataset, baseline_digest):
    sim, ada = _ingested_ada(dataset)
    assert _playback_digest(sim, ada) == baseline_digest
    # the accelerated path actually ran
    assert ada.metrics.value("prefetch_issued_total") > 0


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_transient_chaos_with_prefetch_is_bit_identical(
    dataset, baseline_digest, seed
):
    """Property: any transient-only seed leaves pipelined playback
    byte-for-byte equal to the fault-free plain reader."""
    sim, ada = _ingested_ada(dataset)
    _attach_everywhere(
        ada, seed, FaultSpec(transient_rate=0.08, corruption_rate=0.02)
    )
    assert _playback_digest(sim, ada) == baseline_digest
    assert ada.metrics.value("retry_exhausted_total") == 0
    assert ada.degraded == []


def test_heavy_transient_chaos_recovers_and_retries(dataset, baseline_digest):
    sim, ada = _ingested_ada(
        dataset, retry_policy=RetryPolicy(max_retries=12, seed=0)
    )
    plans = _attach_everywhere(ada, 5, FaultSpec(transient_rate=0.2))
    assert _playback_digest(sim, ada) == baseline_digest
    assert sum(plan.total() for plan in plans) > 0
    assert ada.metrics.value("retry_retries_total") > 0


def test_failed_prefetch_never_crashes_playback(dataset):
    """A speculative read that dies is absorbed; the failure surfaces
    only when (and if) a demand read actually needs those chunks."""
    pdb_text, blobs = dataset
    sim, ada = _ingested_ada(dataset)

    def warmup():
        # Confirm the stride on the misc tag; prefetch of [6, 7] runs
        # fault-free in the background.
        for start in (0, 2, 4):
            yield from ada.fetch_chunks("bar.xtc", "m", [start, start + 1])
            yield sim.timeout(0.002)
        yield sim.timeout(1.0)

    sim.run_process(warmup())
    # The misc tag lives on the inactive tier; kill it permanently.
    records = ada.plfs.subset_records("bar.xtc", "m")
    backend = ada.plfs.backends[records[0].backend]
    FaultPlan(
        seed=1, sites={f"fs:{records[0].backend}": FaultSpec(permanent_rate=1.0)}
    ).attach(backend)

    def doomed_speculation():
        # [6, 7] serve from cache; the observe launches prefetch [8, 9],
        # which dies against the dead backend -- without raising here.
        yield from ada.fetch_chunks("bar.xtc", "m", [6, 7])
        yield sim.timeout(1.0)

    sim.run_process(doomed_speculation())
    assert ada.metrics.value("prefetch_failed_total") >= 1
    # The demand read for the same chunks surfaces the real error.
    with pytest.raises(PermanentFaultError):
        sim.run_process(ada.fetch_chunks("bar.xtc", "m", [8, 9]))


def test_degradation_backoff_engages_under_sustained_faults(dataset):
    """The prefetcher stands down while the retry layer is reporting new
    transient faults, and resumes on clean windows."""
    sim, ada = _ingested_ada(dataset)
    _attach_everywhere(ada, 3, FaultSpec(transient_rate=0.5))
    _playback_digest(sim, ada)
    assert ada.metrics.value("prefetch_suppressed_degraded_total") > 0
    assert ada.metrics.value("retry_transient_faults_total") > 0

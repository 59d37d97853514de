"""Tests for the pipelined read path: coalescing, block cache, prefetch.

The contract under test: every pipelined configuration (cache, coalesced
spans, adaptive prefetch, serial baseline) returns *exactly* the bytes the
plain path returns -- the pipeline moves time, never data -- while saving
backend requests and simulated seconds where it claims to.
"""

import hashlib

import numpy as np
import pytest

from repro.core import ADA
from repro.errors import ContainerError, CorruptionError
from repro.fs import LocalFS
from repro.fs.cache import BlockCache
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.storage.hdd import hdd_spec
from repro.units import GB, mbps
from repro.workloads import build_workload


def _fs(sim, name, spec=None):
    spec = spec or DeviceSpec(
        name=name,
        read_bw=mbps(1000),
        write_bw=mbps(1000),
        seek_latency_s=0.0,
        capacity=100 * GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name, metadata_latency_s=0.0)


def _chunk_blobs(natoms=300, nchunks=6, frames_per_chunk=3, seed=3):
    from repro.formats.xtc import encode_raw

    workload = build_workload(
        natoms=natoms, nframes=nchunks * frames_per_chunk, seed=seed
    )
    blobs = [
        encode_raw(
            workload.trajectory.slice_frames(
                i * frames_per_chunk, (i + 1) * frames_per_chunk
            )
        )
        for i in range(nchunks)
    ]
    return workload.pdb_text, blobs


def _ada(sim, cache=False, prefetch=False, serial=False, seeky=False, **kw):
    if seeky:
        backends = {
            "ssd": _fs(sim, "ssd", hdd_spec(name="seeky-ssd")),
            "hdd": _fs(sim, "hdd", hdd_spec(name="seeky-hdd")),
        }
    else:
        backends = {"ssd": _fs(sim, "ssd"), "hdd": _fs(sim, "hdd")}
    return ADA(
        sim,
        backends=backends,
        block_cache=BlockCache(sim) if cache else None,
        prefetch=prefetch,
        serial_requests=serial,
        **kw,
    )


def _ingest(ada, logical, pdb_text, blobs):
    ada.sim.run_process(ada.ingest(logical, pdb_text, blobs[0]))
    for blob in blobs[1:]:
        ada.sim.run_process(ada.ingest_append(logical, blob))


@pytest.fixture(scope="module")
def dataset():
    return _chunk_blobs()


# -- coalescing ---------------------------------------------------------------


def test_coalesced_reads_bit_identical_to_plain(dataset):
    pdb_text, blobs = dataset
    results = {}
    for mode in ("plain", "pipelined", "serial"):
        sim = Simulator()
        ada = _ada(
            sim, cache=(mode == "pipelined"), serial=(mode == "serial")
        )
        _ingest(ada, "bar.xtc", pdb_text, blobs)
        results[mode] = {
            tag: sim.run_process(ada.fetch("bar.xtc", tag)).data
            for tag in ada.tags("bar.xtc")
        }
        if mode == "pipelined":
            assert ada.metrics.value("retriever_requests_saved_total") > 0
    assert results["pipelined"] == results["plain"] == results["serial"]


def test_coalescing_saves_simulated_time_on_seeky_media(dataset):
    pdb_text, blobs = dataset
    elapsed = {}
    for mode in ("serial", "coalesced"):
        sim = Simulator()
        ada = _ada(sim, cache=(mode == "coalesced"), serial=(mode == "serial"),
                   seeky=True)
        _ingest(ada, "bar.xtc", pdb_text, blobs)
        t0 = sim.now
        sim.run_process(ada.fetch("bar.xtc", "p"))
        elapsed[mode] = sim.now - t0
    # 6 chunks x 8 ms seek serially vs one span: a real gap, not noise.
    assert elapsed["coalesced"] < elapsed["serial"] / 2


def test_coalesced_span_verifies_each_chunk_crc(dataset):
    """Property: a span read detects exactly the corruption per-chunk
    reads would -- CRC is verified per chunk inside the span."""
    pdb_text, blobs = dataset
    sim = Simulator()
    ada = _ada(sim)
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    records = ada.plfs.subset_records("bar.xtc", "p")
    run = [r for r in records if r.backend == records[2].backend][:3]
    assert len(run) == 3
    # Flip one byte of the middle chunk at rest.
    victim = run[len(run) // 2]
    store = ada.plfs.backends[victim.backend].store
    data = bytearray(store.data(victim.path))
    data[len(data) // 2] ^= 0xFF
    store.put(victim.path, data=bytes(data))
    with pytest.raises(CorruptionError, match=victim.path):
        sim.run_process(ada.plfs.read_chunk_run(run))


def test_retrieve_chunks_rejects_unknown_chunk(dataset):
    pdb_text, blobs = dataset
    sim = Simulator()
    ada = _ada(sim, cache=True)
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    with pytest.raises(ContainerError):
        sim.run_process(ada.fetch_chunks("bar.xtc", "p", [0, 99]))


# -- block cache integration --------------------------------------------------


def test_repeat_fetch_serves_from_cache(dataset):
    pdb_text, blobs = dataset
    sim = Simulator()
    ada = _ada(sim, cache=True, seeky=True)
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    t0 = sim.now
    cold = sim.run_process(ada.fetch("bar.xtc", "p"))
    cold_s = sim.now - t0
    t0 = sim.now
    warm = sim.run_process(ada.fetch("bar.xtc", "p"))
    warm_s = sim.now - t0
    assert warm.data == cold.data
    assert ada.metrics.value(
        "retriever_cache_served_bytes_total"
    ) >= warm.nbytes
    assert warm_s < cold_s / 2  # memory-speed, no seeks paid twice


def test_remove_drops_every_cached_block(dataset):
    pdb_text, blobs = dataset
    sim = Simulator()
    ada = _ada(sim, cache=True)
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    sim.run_process(ada.fetch_all("bar.xtc"))
    assert len(ada.block_cache) > 0
    ada.remove("bar.xtc")
    assert len(ada.block_cache) == 0


def test_stats_exposes_cache_prefetch_and_coalescing(dataset):
    pdb_text, blobs = dataset
    sim = Simulator()
    ada = _ada(sim, cache=True, prefetch=True)
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    sim.run_process(ada.fetch("bar.xtc", "p"))
    series = ada.metrics.query()
    assert len(ada.block_cache) > 0
    assert series['block_cache_bytes{tier="l1"}'] > 0
    assert series["retriever_coalesced_runs_total"] > 0
    assert "prefetch_issued_total" in series
    plain = _ada(Simulator()).metrics
    assert not plain.query("block_cache_") and not plain.query("prefetch_")
    assert plain.value("retriever_coalesced_runs_total") == 0


# -- zero-copy fetch_merged ---------------------------------------------------


def test_fetch_merged_identical_across_read_paths(dataset):
    pdb_text, blobs = dataset
    merged = {}
    for mode in ("plain", "pipelined"):
        sim = Simulator()
        ada = _ada(sim, cache=(mode == "pipelined"))
        _ingest(ada, "bar.xtc", pdb_text, blobs)
        merged[mode] = sim.run_process(ada.fetch_merged("bar.xtc"))
    assert np.array_equal(merged["plain"].coords, merged["pipelined"].coords)
    assert np.array_equal(merged["plain"].steps, merged["pipelined"].steps)
    assert np.array_equal(
        merged["plain"].times_ps, merged["pipelined"].times_ps
    )


def test_fetch_merged_round_trips_the_ingested_trajectory():
    from repro.formats.xtc import encode_raw

    workload = build_workload(natoms=200, nframes=8, seed=11)
    chunk = 4
    blobs = [
        encode_raw(workload.trajectory.slice_frames(i, i + chunk))
        for i in range(0, 8, chunk)
    ]
    sim = Simulator()
    ada = _ada(sim, cache=True)
    _ingest(ada, "bar.xtc", workload.pdb_text, blobs)
    merged = sim.run_process(ada.fetch_merged("bar.xtc"))
    assert merged.nframes == workload.trajectory.nframes
    assert np.array_equal(merged.coords, workload.trajectory.coords)


# -- adaptive prefetch --------------------------------------------------------


def _playback_digest(ada, logical, nchunks, window):
    digest = hashlib.sha256()
    for start in range(0, nchunks, window):
        chunks = list(range(start, min(start + window, nchunks)))
        for obj in ada.sim.run_process(
            ada.fetch_chunks(logical, "p", chunks)
        ):
            digest.update(obj.data)
    return digest.hexdigest()


def test_prefetch_on_playback_bit_identical_to_on_demand():
    pdb_text, blobs = _chunk_blobs(nchunks=12, frames_per_chunk=2)
    digests = {}
    for mode in ("on_demand", "prefetch"):
        sim = Simulator()
        ada = _ada(sim, cache=True, prefetch=(mode == "prefetch"))
        _ingest(ada, "bar.xtc", pdb_text, blobs)
        digests[mode] = _playback_digest(ada, "bar.xtc", 12, 2)
        if mode == "prefetch":
            assert ada.metrics.value("prefetch_issued_total") > 0
            assert ada.metrics.value("block_cache_prefetch_hits_total") > 0
    assert digests["prefetch"] == digests["on_demand"]


def test_demand_read_joins_inflight_prefetch():
    """An overlapping demand read must ride the speculative read, not
    double-issue it on the device queue."""
    pdb_text, blobs = _chunk_blobs(nchunks=12, frames_per_chunk=2)
    sim = Simulator()
    ada = _ada(sim, cache=True, prefetch=True, seeky=True)
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    before = sum(fs.bytes_read for fs in ada.plfs.backends.values())

    def consume():
        # Decode time (2 ms) is shorter than the 8 ms seek, so the demand
        # window lands while its prefetch is still on the device queue.
        for start in range(0, 12, 2):
            yield from ada.fetch_chunks("bar.xtc", "p", [start, start + 1])
            yield sim.timeout(0.002)

    sim.run_process(consume())
    read = sum(fs.bytes_read for fs in ada.plfs.backends.values()) - before
    assert ada.metrics.value("retriever_dedup_waits_total") > 0
    # Every chunk moved over the backend exactly once -- the demand reads
    # rode the speculative ones instead of re-issuing them.
    assert read == ada.subset_nbytes("bar.xtc", "p")


def test_prefetch_suppressed_on_random_access():
    pdb_text, blobs = _chunk_blobs(nchunks=12, frames_per_chunk=2)
    sim = Simulator()
    ada = _ada(sim, cache=True, prefetch=True)
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    for start in (0, 8, 2, 10, 4, 6):  # no steady stride
        sim.run_process(ada.fetch_chunks("bar.xtc", "p", [start, start + 1]))
    assert ada.metrics.value("prefetch_issued_total") == 0
    assert ada.metrics.value("prefetch_suppressed_pattern_total") > 0


def test_prefetch_backs_off_under_cache_pressure():
    pdb_text, blobs = _chunk_blobs(nchunks=12, frames_per_chunk=2)
    # Size L1 to hold only ~3 playback chunks so the working set overflows.
    probe = _ada(Simulator())
    _ingest(probe, "bar.xtc", pdb_text, blobs)
    chunk_nbytes = probe.plfs.subset_records("bar.xtc", "p")[0].nbytes
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": _fs(sim, "ssd"), "hdd": _fs(sim, "hdd")},
        block_cache=BlockCache(sim, l1_capacity_bytes=3 * chunk_nbytes + 1),
        prefetch=True,
    )
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    _playback_digest(ada, "bar.xtc", 12, 2)
    assert ada.metrics.value("prefetch_suppressed_pressure_total") > 0


def test_prefetch_backs_off_when_fault_layer_degrades():
    from repro.core.prefetch import Prefetcher

    pdb_text, blobs = _chunk_blobs(nchunks=12, frames_per_chunk=2)
    sim = Simulator()
    ada = _ada(sim, cache=True)
    _ingest(ada, "bar.xtc", pdb_text, blobs)
    level = {"n": 0}
    prefetcher = Prefetcher(
        sim,
        ada.determinator.retriever,
        degradation_source=lambda: float(level["n"]),
    )
    # Two same-stride steps confirm the pattern; the first confirmed
    # window also records the degradation baseline and speculates.
    assert prefetcher.observe("bar.xtc", "p", [0, 1]) is None
    assert prefetcher.observe("bar.xtc", "p", [2, 3]) is None
    assert prefetcher.observe("bar.xtc", "p", [4, 5]) is not None
    sim.run()  # the one speculation slot (MAX_INFLIGHT) frees up
    # New faults since the last window: back off.
    level["n"] = 1
    assert prefetcher.observe("bar.xtc", "p", [6, 7]) is None
    assert prefetcher.metrics.value("prefetch_suppressed_degraded_total") == 1
    # A clean window afterwards resumes speculation.
    assert prefetcher.observe("bar.xtc", "p", [8, 9]) is not None
    assert prefetcher.metrics.value("prefetch_issued_total") == 2

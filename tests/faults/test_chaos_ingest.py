"""Chaos properties over the streaming (pipelined) ingest path.

The write-behind pipeline must uphold the same contract as the monolithic
path under injected faults:

* **transient** faults mid-window (chunk-run writes, index flushes) are
  absorbed by retry + run-scoped rollback: the stored container is
  bit-identical to a fault-free pipelined run;
* **StorageFullError** mid-stream spills whole runs to the inactive tier
  without losing or duplicating a single chunk, and the dispatcher's byte
  accounting counts every chunk exactly once -- retries and spills never
  double-count ``dispatcher_bytes_total``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ADA, IngestPipelineConfig
from repro.core.preprocessor import DataPreProcessor
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.fs import LocalFS
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, KiB, mbps
from repro.workloads import build_workload

pytestmark = pytest.mark.chaos

LOGICAL = "stream.xtc"
CONFIG = IngestPipelineConfig(window_frames=4, depth=3)


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
    return build_workload(natoms=300, nframes=32, seed=11, keyframe_interval=4)


def _stream_ingest(workload, transient_rate=0.0, ssd_capacity=100 * GB,
                   seed=0, max_retries=8):
    """One pipelined ingest_stream run; returns the ADA (sim attached)."""
    sim = Simulator()
    ada = ADA(
        sim,
        backends={
            "ssd": _fs(sim, "ssd", capacity=ssd_capacity),
            "hdd": _fs(sim, "hdd"),
        },
        retry_policy=RetryPolicy(max_retries=max_retries, seed=seed),
    )
    if transient_rate:
        for fs in ada.plfs.backends.values():
            FaultPlan(
                seed=seed,
                sites={f"fs:{fs.name}": FaultSpec(transient_rate=transient_rate)},
            ).attach(fs)
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob,
            pdb_text=workload.pdb_text, config=CONFIG,
        )
    )
    return ada


def _digest(ada):
    return sorted(
        (name, path, fs.store.data(path))
        for name, fs in ada.plfs.backends.items()
        for path in fs.store.walk()
    )


def _app_bytes(ada):
    """What the application reads back: per-tag subset bytes.

    The recovery contract is application-level: a retried run claims
    fresh chunk *numbers* (failed attempts leave counter gaps, names are
    never reused), so the backend layout may differ from a fault-free run
    while every byte the reader sees is identical.
    """
    return {
        tag: ada.sim.run_process(ada.fetch(LOGICAL, tag)).data
        for tag in ada.tags(LOGICAL)
    }


# -- transient faults mid-window ---------------------------------------------


def test_transient_faults_mid_window_recover_bit_identically(workload):
    baseline = _stream_ingest(workload)
    faulted = _stream_ingest(workload, transient_rate=0.1, seed=7)
    assert _app_bytes(faulted) == _app_bytes(baseline)
    value = faulted.metrics.value
    assert value("retry_transient_faults_total") > 0  # faults actually fired
    assert value("retry_permanent_failures_total") == 0
    assert faulted.plfs.fsck(LOGICAL)["ok"]
    # Retried runs never double-count dispatched bytes.
    assert faulted.metrics.query(
        "dispatcher_bytes_total"
    ) == baseline.metrics.query("dispatcher_bytes_total")


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_transient_ingest_chaos_sweep(seed):
    workload = build_workload(
        natoms=200, nframes=16, seed=5, keyframe_interval=4
    )
    baseline = _stream_ingest(workload)
    faulted = _stream_ingest(workload, transient_rate=0.08, seed=seed)
    assert _app_bytes(faulted) == _app_bytes(baseline)
    assert faulted.metrics.value("retry_exhausted_total") == 0


def test_faulted_stream_ingest_is_deterministic(workload):
    a = _stream_ingest(workload, transient_rate=0.1, seed=13)
    b = _stream_ingest(workload, transient_rate=0.1, seed=13)
    assert _digest(a) == _digest(b)
    assert a.metrics.query("retry_") == b.metrics.query("retry_")
    assert a.sim.now == b.sim.now


# -- storage-full spills mid-stream ------------------------------------------


def test_storage_full_mid_stream_spills_whole_runs(workload):
    # Room for the first few protein chunks only; the stream must then
    # spill protein runs to the rotating tier without losing a chunk.
    ada = _stream_ingest(workload, ssd_capacity=12 * KiB)
    dispatcher = ada.determinator.dispatcher
    assert ada.metrics.value("dispatcher_spills_total") > 0
    assert all(s[2] == "ssd" and s[3] == "hdd" for s in dispatcher.spills)
    # Nothing lost, nothing duplicated: the index cross-references clean,
    # and the protein subset's chunks land once each across both tiers.
    assert ada.plfs.fsck(LOGICAL)["ok"]
    records = ada.plfs.subset_records(LOGICAL, "p")
    # One chunk per window, strictly ordered; spilled attempts leave
    # counter gaps but never duplicate or reuse a chunk name.
    assert len(records) == 8
    chunks = [r.chunk for r in records]
    assert chunks == sorted(set(chunks))
    assert {r.backend for r in records} == {"ssd", "hdd"}
    # The reassembled stream is exactly what arrived.
    merged = ada.sim.run_process(ada.fetch_merged(LOGICAL))
    ref = DataPreProcessor().decompressor.decompress(workload.xtc_blob)
    assert np.array_equal(merged.coords, ref.coords)


def test_spill_path_accounting_never_double_counts(workload):
    clean = _stream_ingest(workload)
    spilled = _stream_ingest(workload, ssd_capacity=12 * KiB)
    # Spilled chunks are counted once, at their final landing spot: the
    # per-tag byte totals match the spill-free run exactly.
    assert spilled.metrics.query(
        "dispatcher_bytes_total"
    ) == clean.metrics.query("dispatcher_bytes_total")
    for tag in spilled.all_tags(LOGICAL):
        nbytes = spilled.metrics.value("dispatcher_bytes_total", tag=tag)
        assert isinstance(nbytes, int)
        assert nbytes == spilled.plfs.subset_nbytes(LOGICAL, tag)
    assert spilled.metrics.value(
        "dispatcher_writes_total"
    ) == clean.metrics.value("dispatcher_writes_total")


def test_spills_under_transient_chaos_stay_exact(workload):
    """Retries *and* spills together still count every chunk once."""
    ada = _stream_ingest(
        workload, transient_rate=0.1, ssd_capacity=12 * KiB, seed=23
    )
    assert ada.metrics.value("dispatcher_spills_total") > 0
    assert ada.metrics.value("retry_transient_faults_total") > 0
    assert ada.plfs.fsck(LOGICAL)["ok"]
    for tag in ada.all_tags(LOGICAL):
        assert ada.metrics.value(
            "dispatcher_bytes_total", tag=tag
        ) == ada.plfs.subset_nbytes(LOGICAL, tag)
    merged = ada.sim.run_process(ada.fetch_merged(LOGICAL))
    ref = DataPreProcessor().decompressor.decompress(workload.xtc_blob)
    assert np.array_equal(merged.coords, ref.coords)

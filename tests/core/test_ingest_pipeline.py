"""The streaming ingest pipeline: windows, backpressure, byte-identity.

The contract under test: ``ingest_stream`` moves *when* bytes land on the
backends (CPU/device overlap, bounded write-behind buffering), never
*which* bytes -- the pipelined schedule stores exactly what the serial
windowed schedule stores, appends interact safely with concurrent reads,
and every counter the pipeline reports is registry-backed.
"""

import numpy as np
import pytest

from repro.core import ADA, IngestPipelineConfig
from repro.core.preprocessor import DataPreProcessor
from repro.errors import ConfigurationError, PermanentFaultError
from repro.faults import FaultPlan, FaultSpec
from repro.fs import LocalFS
from repro.fs.cache import BlockCache
from repro.sim import AllOf, Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, KiB, mbps
from repro.workloads import build_workload

LOGICAL = "stream.xtc"


def _fs(sim, name, write_bw_mbps=1000, seek_s=0.0):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(1000),
        write_bw=mbps(write_bw_mbps),
        seek_latency_s=seek_s,
        capacity=100 * GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name, metadata_latency_s=0.0)


def _ada(sim, cache=False, write_bw_mbps=1000, **kw):
    return ADA(
        sim,
        backends={
            "ssd": _fs(sim, "ssd", write_bw_mbps),
            "hdd": _fs(sim, "hdd", write_bw_mbps),
        },
        block_cache=BlockCache(sim) if cache else None,
        **kw,
    )


def _digest(ada):
    return sorted(
        (name, path, fs.store.data(path))
        for name, fs in ada.plfs.backends.items()
        for path in fs.store.walk()
    )


@pytest.fixture(scope="module")
def workload():
    # 32 frames in 4-frame GOFs -> 8 windows at window_frames=4.
    return build_workload(natoms=300, nframes=32, seed=3, keyframe_interval=4)


# -- windowed pre-processing --------------------------------------------------


def test_process_windows_matches_monolithic_split(workload):
    pre = DataPreProcessor()
    label_map = pre.analyze_structure(workload.pdb_text)
    windows = list(pre.process_windows(label_map, workload.xtc_blob, 4))
    assert [w.index for w in windows] == list(range(8))
    assert windows[0].start == 0 and windows[-1].stop == 32
    for prev, cur in zip(windows, windows[1:]):
        assert cur.start == prev.stop
    whole = pre.process_chunk(label_map, workload.xtc_blob)
    assert sum(w.raw_nbytes for w in windows) == whole.raw_nbytes
    # Decoded frame-for-frame, the windowed split equals the monolithic one.
    for tag in whole.subsets:
        parts = [
            pre.decompressor.decompress(w.subsets[tag]) for w in windows
        ]
        coords = np.concatenate([p.coords for p in parts])
        ref = pre.decompressor.decompress(whole.subsets[tag])
        assert np.array_equal(coords, ref.coords)


def test_windows_are_gof_aligned(workload):
    pre = DataPreProcessor()
    label_map = pre.analyze_structure(workload.pdb_text)
    # window_frames=6 rounds up to whole 4-frame GOFs per window.
    windows = list(pre.process_windows(label_map, workload.xtc_blob, 6))
    for window in windows[:-1]:
        assert window.nframes % 4 == 0


def test_config_validation():
    with pytest.raises(ConfigurationError):
        IngestPipelineConfig(window_frames=0)
    with pytest.raises(ConfigurationError):
        IngestPipelineConfig(depth=0)
    with pytest.raises(ConfigurationError):
        IngestPipelineConfig(max_buffered_bytes=0)


# -- byte-identity ------------------------------------------------------------


def test_serial_and_pipelined_stores_identical(workload):
    stores, indexes = {}, {}
    for pipelined in (False, True):
        sim = Simulator()
        ada = _ada(sim)
        config = IngestPipelineConfig(window_frames=4, pipelined=pipelined)
        sim.run_process(
            ada.ingest_stream(
                LOGICAL, workload.xtc_blob,
                pdb_text=workload.pdb_text, config=config,
            )
        )
        stores[pipelined] = _digest(ada)
        indexes[pipelined] = ada.plfs.container_index(LOGICAL)
    assert stores[False] == stores[True]
    assert indexes[False] == indexes[True]


def test_receipt_matches_monolithic_ingest(workload):
    sim = Simulator()
    ada = _ada(sim)
    receipt = sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
            config=IngestPipelineConfig(window_frames=4),
        )
    )
    assert receipt.logical == LOGICAL
    assert receipt.compressed_nbytes == len(workload.xtc_blob)
    assert receipt.raw_nbytes == workload.trajectory.nbytes
    for tag, size in receipt.subset_sizes.items():
        assert size == ada.plfs.subset_nbytes(LOGICAL, tag)
    merged = sim.run_process(ada.fetch_merged(LOGICAL))
    # Compare against the *decoded* stream (XTC quantizes coordinates).
    ref = DataPreProcessor().decompressor.decompress(workload.xtc_blob)
    assert np.array_equal(merged.coords, ref.coords)


# -- backpressure and buffering ----------------------------------------------


def test_backpressure_bounds_queue_depth(workload):
    sim = Simulator()
    ada = _ada(sim, write_bw_mbps=1)  # slow tier: producer must stall
    config = IngestPipelineConfig(window_frames=4, depth=2)
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob,
            pdb_text=workload.pdb_text, config=config,
        )
    )
    value = ada.metrics.value
    assert value("ingest_windows_total") == 8
    assert value("ingest_backpressure_waits_total") > 0
    assert value("ingest_backpressure_seconds_total") > 0.0
    assert value("ingest_queue_depth_peak") <= 2


def test_byte_watermark_bounds_buffered_bytes(workload):
    sim = Simulator()
    ada = _ada(sim, write_bw_mbps=1)
    watermark = 48 * KiB  # > one window, < the whole stream
    config = IngestPipelineConfig(
        window_frames=4, depth=8, max_buffered_bytes=watermark
    )
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob,
            pdb_text=workload.pdb_text, config=config,
        )
    )
    assert 0 < ada.metrics.value("ingest_buffered_bytes_peak") <= watermark
    assert ada.stats()["ingest"]["buffered_bytes_peak"] == ada.metrics.value(
        "ingest_buffered_bytes_peak"
    )  # the key benchmarks/e2e still reads


def test_pipelined_overlaps_cpu_with_dispatch(workload):
    from repro.cluster.node import ComputeNode
    from repro.harness.calibration import E5_2603V4
    from repro.storage.power import NodePower

    elapsed = {}
    for pipelined in (False, True):
        sim = Simulator()
        cpu = ComputeNode(
            sim, "storage0", E5_2603V4, memory_capacity=GB,
            power=NodePower(idle_w=330.0, cpu_active_w=60.0, io_active_w=10.0),
        )
        ada = _ada(sim, storage_cpu=cpu, write_bw_mbps=2)
        config = IngestPipelineConfig(window_frames=4, pipelined=pipelined)
        sim.run_process(
            ada.ingest_stream(
                LOGICAL, workload.xtc_blob,
                pdb_text=workload.pdb_text, config=config,
            )
        )
        elapsed[pipelined] = sim.now
        overlap = ada.stats()["ingest"]["overlap_ratio"]
        if pipelined:
            assert overlap > 0.0
        else:
            assert overlap == 0.0
    assert elapsed[True] < elapsed[False]


# -- appends racing reads -----------------------------------------------------


def test_stream_append_invalidates_derived_cache(workload):
    half = workload.trajectory.nframes // 2
    from repro.formats.xtc import encode_xtc

    first = encode_xtc(
        workload.trajectory.slice_frames(0, half), keyframe_interval=4
    )
    second = encode_xtc(
        workload.trajectory.slice_frames(half, workload.trajectory.nframes),
        keyframe_interval=4,
    )
    sim = Simulator()
    ada = _ada(sim, cache=True)
    config = IngestPipelineConfig(window_frames=4)
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, first, pdb_text=workload.pdb_text, config=config
        )
    )
    # Warm the derived-subset cache entries, then append without a pdb.
    before = sim.run_process(ada.fetch(LOGICAL, "p"))
    sim.run_process(ada.ingest_stream(LOGICAL, second, config=config))
    after = sim.run_process(ada.fetch(LOGICAL, "p"))
    assert after.nbytes == ada.plfs.subset_nbytes(LOGICAL, "p")
    assert after.nbytes > before.nbytes


def test_stream_append_racing_fetch_merged(workload):
    """An in-flight merged read and a streaming append interleave safely.

    The read resolves against the index it looked up; the append's cache
    invalidation must still guarantee the *next* read sees every frame.
    """
    half = workload.trajectory.nframes // 2
    from repro.formats.xtc import encode_xtc

    first = encode_xtc(
        workload.trajectory.slice_frames(0, half), keyframe_interval=4
    )
    second = encode_xtc(
        workload.trajectory.slice_frames(half, workload.trajectory.nframes),
        keyframe_interval=4,
    )
    sim = Simulator()
    ada = _ada(sim, cache=True)
    config = IngestPipelineConfig(window_frames=4)
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, first, pdb_text=workload.pdb_text, config=config
        )
    )

    def race():
        reader = sim.process(ada.fetch_merged(LOGICAL), name="race:read")
        writer = sim.process(
            ada.ingest_stream(LOGICAL, second, config=config),
            name="race:append",
        )
        results = yield AllOf(sim, [reader, writer])
        return results[0]

    mid = sim.run_process(race())
    # Compare against the decoded stream (XTC quantizes coordinates).
    decompress = DataPreProcessor().decompressor.decompress
    ref = np.concatenate(
        [decompress(first).coords, decompress(second).coords]
    )
    # The racing read returned a consistent prefix of the stream.
    assert np.array_equal(mid.coords, ref[: mid.nframes])
    # After the append settles, a fresh read sees the whole trajectory --
    # no stale derived-subset cache entry survives the race.
    merged = sim.run_process(ada.fetch_merged(LOGICAL))
    assert np.array_equal(merged.coords, ref)


# -- counters and error propagation ------------------------------------------


def test_ingest_counters_are_registry_backed(workload):
    sim = Simulator()
    ada = ADA(sim, backends={"hdd": _fs(sim, "hdd")})
    config = IngestPipelineConfig(window_frames=4)
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob,
            pdb_text=workload.pdb_text, config=config,
        )
    )
    value = ada.metrics.value
    # Satellite: dispatched bytes are exact ints, not floats.
    for tag in ada.all_tags(LOGICAL):
        nbytes = value("dispatcher_bytes_total", tag=tag)
        assert isinstance(nbytes, int)
        assert nbytes == ada.plfs.subset_nbytes(LOGICAL, tag)
    assert len(ada.metrics.query("dispatcher_bytes_total")) == 2
    assert value("ingest_windows_total") == 8
    assert value("dispatcher_coalesced_runs_total") == 8
    assert value("dispatcher_requests_saved_total") >= 8


def test_two_tier_windows_coalesce_once_per_backend(workload):
    sim = Simulator()
    ada = _ada(sim, lod_precision=12.5)
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
            config=IngestPipelineConfig(window_frames=4),
        )
    )
    value = ada.metrics.value
    windows = value("ingest_windows_total")
    assert windows == 8
    # lod:m, lod:p, m, p alternate HDD and SSD in tag order; each tier's
    # pair is still one coalesced run, saving one request per tier.
    assert ada.all_tags(LOGICAL) == ["lod:m", "lod:p", "m", "p"]
    assert value("dispatcher_coalesced_runs_total") == 2 * windows
    assert value("dispatcher_requests_saved_total") == 2 * windows


def test_consumer_failure_propagates_without_deadlock(workload):
    sim = Simulator()
    ada = _ada(sim)
    config = IngestPipelineConfig(window_frames=4)
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob,
            pdb_text=workload.pdb_text, config=config,
        )
    )
    for fs in ada.plfs.backends.values():
        FaultPlan(
            seed=5, sites={f"fs:{fs.name}": FaultSpec(permanent_rate=1.0)}
        ).attach(fs)
    with pytest.raises(PermanentFaultError):
        sim.run_process(
            ada.ingest_stream(LOGICAL, workload.xtc_blob, config=config)
        )


# -- fused in-situ analysis ---------------------------------------------------


def _storage_cpu(sim):
    from repro.cluster.node import ComputeNode
    from repro.harness.calibration import E5_2603V4
    from repro.storage.power import NodePower

    return ComputeNode(
        sim, "storage0", E5_2603V4, memory_capacity=64 * GB,
        power=NodePower(idle_w=330.0, cpu_active_w=60.0, io_active_w=10.0),
    )


def _run_stream(workload, analysis=None, pipelined=True, with_cpu=True):
    from repro.analysis import InSituAnalysis

    sim = Simulator()
    ada = _ada(sim, storage_cpu=_storage_cpu(sim) if with_cpu else None)
    hook = InSituAnalysis() if analysis else None
    receipt = sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
            config=IngestPipelineConfig(window_frames=4, pipelined=pipelined),
            analysis=hook,
        )
    )
    return sim, ada, receipt


def test_fused_analysis_matches_batch_and_preserves_digest(workload):
    from repro.analysis import contact_count, gyration_radius, rmsd_trajectory
    from repro.core.decompressor import Decompressor

    _, ada_plain, receipt_plain = _run_stream(workload, analysis=False)
    _, ada_fused, receipt_fused = _run_stream(workload, analysis=True)
    # The analysis stage only moves *when* things happen, never what is
    # stored: every path, byte, and CRC is identical with or without it.
    assert _digest(ada_plain) == _digest(ada_fused)
    assert receipt_plain.analysis is None
    res = receipt_fused.analysis
    decoded = Decompressor().decompress(workload.xtc_blob)
    assert res["frames"] == decoded.nframes
    assert np.array_equal(res["rmsd"], rmsd_trajectory(decoded))
    assert np.array_equal(res["contacts"], contact_count(decoded))
    assert np.array_equal(res["gyration_radius"], gyration_radius(decoded))
    assert set(res["stats"]) == {"rmsd", "gyration_radius"}
    assert ada_fused.metrics.value("ingest_analysis_seconds_total") > 0.0
    assert int(ada_fused.metrics.counter("analysis_windows_total").value) == 8
    assert (
        int(ada_fused.metrics.counter("analysis_frames_total").value)
        == decoded.nframes
    )


def test_fused_analysis_overlaps_instead_of_serializing(workload):
    sim_fused, ada_fused, _ = _run_stream(workload, analysis=True)
    sim_serial, _, _ = _run_stream(workload, analysis=True, pipelined=False)
    # Same CPU + analysis + dispatch charges, but the three-stage pipeline
    # overlaps them in simulated time.
    assert sim_fused.now < sim_serial.now
    assert ada_fused.metrics.value("ingest_analysis_seconds_total") > 0.0
    assert ada_fused.stats()["ingest"]["overlap_ratio"] > 0.25


def test_fused_windows_release_coords_after_analysis(workload):
    from repro.analysis import InSituAnalysis

    sim = Simulator()
    ada = _ada(sim)
    seen = []
    pre_process_windows = ada.preprocessor.process_windows

    def spying_windows(*args, **kwargs):
        for window in pre_process_windows(*args, **kwargs):
            seen.append(window)
            yield window

    ada.preprocessor.process_windows = spying_windows
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
            config=IngestPipelineConfig(window_frames=4),
            analysis=InSituAnalysis(),
        )
    )
    assert len(seen) == 8
    # The analysis stage consumed each window's decoded coordinates and
    # then dropped the reference: no per-window frame buffers are retained.
    assert all(window.coords is None for window in seen)


def test_analysis_hook_spans_appended_segments(workload):
    from repro.analysis import InSituAnalysis, rmsd_trajectory
    from repro.core.decompressor import Decompressor
    from repro.formats.trajectory import Trajectory

    sim = Simulator()
    ada = _ada(sim)
    hook = InSituAnalysis(stats_over=())
    config = IngestPipelineConfig(window_frames=4)
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
            config=config, analysis=hook,
        )
    )
    # A second stream without pdb_text appends; the hook's frame numbering
    # continues so the online state now spans both segments.
    sim.run_process(
        ada.ingest_stream(LOGICAL, workload.xtc_blob, config=config, analysis=hook)
    )
    decoded = Decompressor().decompress(workload.xtc_blob)
    both = Trajectory(
        coords=np.concatenate([decoded.coords, decoded.coords]),
        steps=np.concatenate([decoded.steps, decoded.steps]),
        times_ps=np.concatenate([decoded.times_ps, decoded.times_ps]),
    )
    res = hook.results()
    assert res["frames"] == 2 * decoded.nframes
    assert res["replays_ignored"] == 0
    assert np.array_equal(res["rmsd"], rmsd_trajectory(both))


def test_rerunning_failed_stream_with_same_hook_skips_seen_windows(workload):
    from repro.analysis import InSituAnalysis

    sim = Simulator()
    ada = _ada(sim)
    hook = InSituAnalysis(stats_over=())
    config = IngestPipelineConfig(window_frames=4)

    sim.run_process(
        _abandon_when(sim, ada, config, workload,
                      lambda: hook.frames_seen >= 8, analysis=hook)
    )
    sim.run()
    seen_before = hook.frames_seen
    assert seen_before >= 8
    # Re-running the *same* stream (fresh ingest, same hook) replays the
    # consumed windows; the replay guard skips them instead of
    # double-counting, then the tail is analyzed normally.
    sim.run_process(
        ada.ingest_stream(
            LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
            config=config, analysis=hook,
        )
    )
    res = hook.results()
    assert res["frames"] == 32
    assert res["replays_ignored"] == seen_before // 4


def test_rejects_analysis_hook_without_consume(workload):
    sim = Simulator()
    ada = _ada(sim)
    with pytest.raises(ConfigurationError):
        sim.run_process(
            ada.ingest_stream(
                LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
                analysis=object(),
            )
        )


# -- abandoned streams (generator closed mid-flight) --------------------------


def _abandon_when(sim, ada, config, workload, condition, analysis=None,
                  tick_s=1e-5):
    """Process: drive ``ingest_stream`` until ``condition()`` holds, then
    walk away (early ``close()`` -> GeneratorExit inside the pipeline).

    The pipelined run parks its driver on one barrier event, so the
    driver races that event against short timeout ticks to observe
    mid-stream state.
    """
    from repro.sim import AnyOf

    def driver():
        gen = ada.ingest_stream(
            LOGICAL, workload.xtc_blob, pdb_text=workload.pdb_text,
            config=config, analysis=analysis,
        )
        try:
            event = next(gen)
            while not condition():
                yield AnyOf(sim, [event, sim.timeout(tick_s)])
                if event.triggered:
                    try:
                        event = gen.send(event.value)
                    except StopIteration:
                        return  # stream finished before the condition hit
        finally:
            gen.close()

    return driver()


def test_abandoned_stream_releases_buffers_and_pipeline(workload):
    sim = Simulator()
    ada = _ada(sim, write_bw_mbps=10)  # slow dispatch: windows pile up
    config = IngestPipelineConfig(window_frames=4)

    sim.run_process(
        _abandon_when(
            sim, ada, config, workload,
            lambda: ada._ingest_pipeline is not None
            and ada._ingest_pipeline._held > 0,
        )
    )
    pipe = ada._ingest_pipeline
    # Abandonment must not leak buffered windows or wedge accounting...
    assert pipe._held == 0
    assert pipe._buffered_bytes == 0
    assert int(ada.metrics.gauge("ingest_buffered_bytes").value) == 0
    assert int(ada.metrics.gauge("ingest_queue_depth").value) == 0
    # ...including after the interrupted stages finish unwinding.
    sim.run()
    assert pipe._held == 0 and pipe._buffered_bytes == 0
    # The shared pipeline serves the next stream normally.
    receipt = sim.run_process(
        ada.ingest_stream(
            "fresh.xtc", workload.xtc_blob, pdb_text=workload.pdb_text,
            config=config,
        )
    )
    assert ada._ingest_pipeline is pipe
    assert receipt.logical == "fresh.xtc"
    sim2 = Simulator()
    ada2 = _ada(sim2, write_bw_mbps=10)
    sim2.run_process(
        ada2.ingest_stream(
            "fresh.xtc", workload.xtc_blob, pdb_text=workload.pdb_text,
            config=config,
        )
    )
    fresh = [
        (name, path, data)
        for name, path, data in _digest(ada2)
    ]
    reused = [
        (name, path, data)
        for name, path, data in _digest(ada)
        if "fresh.xtc" in path
    ]
    assert reused == fresh


def test_abandoned_fused_stream_cleans_up(workload):
    from repro.analysis import InSituAnalysis

    sim = Simulator()
    ada = _ada(sim, write_bw_mbps=10, storage_cpu=_storage_cpu(sim))
    hook = InSituAnalysis(stats_over=())
    config = IngestPipelineConfig(window_frames=4)

    sim.run_process(
        _abandon_when(sim, ada, config, workload,
                      lambda: hook.windows_seen >= 2, analysis=hook)
    )
    sim.run()
    pipe = ada._ingest_pipeline
    assert pipe._held == 0 and pipe._buffered_bytes == 0
    # The hook keeps the windows it saw; nothing double-counted.
    assert hook.frames_seen == hook.windows_seen * 4

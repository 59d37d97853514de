"""The benchmark's contract: metric and workload catalogue.

Everything ``BENCHMARK.json`` promises is derived from the tables here, and
``test_smoke.py`` checks the two stay in step.  Every number carries the
clock it was read on:

* ``sim``  -- modelled seconds of the discrete-event simulator
  (deterministic: identical for identical ``--seed``/``--seconds``);
* ``host`` -- wall-clock of this Python process (noisy);
* ``count`` -- exact counts from the public ``MetricsRegistry`` /
  ``stats()`` surfaces or from wrapper call counts (deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = [
    "BASE_SECONDS",
    "END_TO_END",
    "Metric",
    "PER_LAYER",
    "SETUP_REPEATS",
    "WORKLOADS",
    "WorkloadSpec",
    "benchmark_json",
    "sizes_for",
]

#: ``run_seconds`` the default sizes below were calibrated for; other
#: ``--seconds`` values scale the slice count (never the slice shape).
BASE_SECONDS = 6

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    clock: str  # "host" | "sim" | "count"
    better: str  # "lower" | "higher"
    bound: float = 0.0  # end-to-end only: tolerated relative worsening
    moves: str = ""  # per-layer only: end-to-end metric -> workloads


# Bounds are what this box can resolve, not what one would wish for.
# ``host``: the sandbox's speed wanders by tens of percent for seconds to
# minutes at a time; even restated against the yardstick (yardstick.py)
# the run-to-run spread of a median slice time is 6-13 %, so host times
# carry the widest bound the contract allows.  ``sim``: the driver judges
# spread *across seeds*, and a different seed is a different Zipf draw and
# trajectory (spreads up to 2 % on the makespan, 9 % on the p99 of the
# miss path); at a fixed seed these values are exact and ``--sets``
# requires them bit-identical.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "host", "lower", 0.25),
    Metric("host_us_per_op", "us", "host", "lower", 0.25),
    Metric("host_peak_rss_mb", "MB", "host", "lower", 0.15),
    Metric("sim_makespan_s", "s", "sim", "lower", 0.07),
    Metric("sim_op_p50_ms", "ms", "sim", "lower", 0.05),
    Metric("sim_op_tail_ms", "ms", "sim", "lower", 0.25),
    Metric("device_bytes_per_payload_byte", "B/B", "sim", "lower", 0.20),
]

_WARM = "serve_warm"
_MIXED = "serve_sharded_mixed"
_SERVE = f"{_WARM}, {_MIXED}"

PER_LAYER: List[Metric] = [
    # -- sim ---------------------------------------------------------------
    Metric("sim.events_per_op", "count", "count", "lower",
           moves=f"host_us_per_op -> {_SERVE}"),
    Metric("sim.host_us_per_event", "us", "host", "lower",
           moves=f"host_us_per_op -> {_SERVE}"),
    Metric("sim.host_self_share", "share", "host", "lower",
           moves=f"host_us_per_op -> {_SERVE}"),
    # -- obs ---------------------------------------------------------------
    Metric("obs.host_self_share", "share", "host", "lower",
           moves=f"host_us_per_op -> {_WARM}"),
    Metric("obs.tracer_overhead_share", "share", "host", "lower",
           moves=f"host_us_per_op -> {_WARM}"),
    # -- serve -------------------------------------------------------------
    Metric("serve.host_self_us_per_op", "us", "host", "lower",
           moves=f"host_us_per_op -> {_WARM}"),
    Metric("serve.sim_queue_wait_p50_ms", "ms", "sim", "lower",
           moves=f"sim_op_tail_ms -> {_MIXED}"),
    Metric("serve.sim_queue_wait_tail_ms", "ms", "sim", "lower",
           moves=f"sim_op_tail_ms -> {_MIXED}"),
    Metric("serve.admission_rejected", "count", "count", "lower",
           moves=f"failed_share -> {_MIXED}"),
    Metric("serve.jain_served_bytes", "ratio", "count", "higher",
           moves=f"sim_op_tail_ms -> {_MIXED}"),
    Metric("serve.sim_write_p50_ms", "ms", "sim", "lower",
           moves=f"sim_makespan_s -> {_MIXED}"),
    # -- cluster -----------------------------------------------------------
    Metric("cluster.host_self_us_per_op", "us", "host", "lower",
           moves=f"host_us_per_op -> {_MIXED}"),
    Metric("cluster.node_imbalance", "ratio", "count", "lower",
           moves=f"sim_makespan_s, sim_op_tail_ms -> {_MIXED}"),
    Metric("cluster.failovers", "count", "count", "lower",
           moves=f"sim_op_tail_ms -> {_MIXED}"),
    Metric("cluster.lod_routed", "count", "count", "higher",
           moves=f"sim_op_p50_ms -> {_MIXED}"),
    # -- core --------------------------------------------------------------
    Metric("core.middleware.host_self_us_per_op", "us", "host", "lower",
           moves=f"host_us_per_op -> {_SERVE}"),
    Metric("core.retriever.host_self_us_per_op", "us", "host", "lower",
           moves=f"host_us_per_op -> {_SERVE}"),
    Metric("core.retriever.read_runs_per_op", "count", "count", "lower",
           moves=f"sim_op_p50_ms, device_bytes_per_payload_byte -> {_MIXED}"),
    Metric("core.retriever.chunks_per_run", "count", "count", "higher",
           moves=f"sim_op_p50_ms -> {_MIXED}"),
    Metric("core.retriever.dedup_joins", "count", "count", "higher",
           moves=f"device_bytes_per_payload_byte -> {_MIXED}"),
    Metric("core.prefetch.issued", "count", "count", "higher",
           moves=f"sim_op_p50_ms -> {_MIXED}, playback_scrub; "
                 f"none on {_WARM}"),
    Metric("core.prefetch.useful_ratio", "ratio", "count", "higher",
           moves=f"device_bytes_per_payload_byte -> {_MIXED}, playback_scrub"),
    Metric("core.prefetch.suppressed", "count", "count", "lower",
           moves=f"sim_op_p50_ms -> {_MIXED}, playback_scrub"),
    Metric("core.preprocessor.host_ms_per_window", "ms", "host", "lower",
           moves="host_us_per_op -> ingest_stream"),
    Metric("core.ingest.sim_backpressure_wait_s", "s", "sim", "lower",
           moves="sim_makespan_s -> ingest_stream"),
    Metric("core.ingest.overlap_ratio", "ratio", "count", "higher",
           moves="sim_makespan_s -> ingest_stream"),
    Metric("core.ingest.peak_buffered_mb", "MB", "count", "lower",
           moves="host_peak_rss_mb -> ingest_stream"),
    # -- fs ----------------------------------------------------------------
    Metric("fs.cache.hit_ratio", "ratio", "count", "higher",
           moves=f"sim_op_p50_ms, device_bytes_per_payload_byte -> {_MIXED}; "
                 f"~1.0 and flat on {_WARM}"),
    Metric("fs.cache.evictions", "count", "count", "lower",
           moves=f"device_bytes_per_payload_byte -> {_MIXED}"),
    Metric("fs.cache.invalidations", "count", "count", "lower",
           moves=f"device_bytes_per_payload_byte -> {_MIXED}, playback_scrub"),
    Metric("fs.cache.host_self_us_per_op", "us", "host", "lower",
           moves=f"host_us_per_op -> {_SERVE}"),
    Metric("fs.plfs.host_self_us_per_chunk", "us", "host", "lower",
           moves=f"host_us_per_op -> {_MIXED}, ingest_stream"),
    Metric("fs.plfs.span_reads", "count", "count", "lower",
           moves=f"sim_op_p50_ms -> {_MIXED}"),
    Metric("fs.plfs.span_writes", "count", "count", "lower",
           moves="sim_makespan_s -> ingest_stream"),
    Metric("fs.plfs.crc_refetches", "count", "count", "lower",
           moves=f"sim_op_tail_ms -> {_MIXED}"),
    # -- storage -----------------------------------------------------------
    Metric("storage.sim_busy_s.ssd", "s", "sim", "lower",
           moves="sim_makespan_s -> ingest_stream, playback_scrub"),
    Metric("storage.sim_busy_s.hdd", "s", "sim", "lower",
           moves=f"sim_makespan_s, sim_op_tail_ms -> {_MIXED}, ingest_stream"),
    Metric("storage.sim_wait_s", "s", "sim", "lower",
           moves=f"sim_op_tail_ms -> {_MIXED}"),
    Metric("storage.requests", "count", "count", "lower",
           moves=f"sim_makespan_s -> {_MIXED}, ingest_stream"),
    Metric("storage.bytes_read", "B", "count", "lower",
           moves=f"device_bytes_per_payload_byte -> {_MIXED}"),
    Metric("storage.bytes_written", "B", "count", "lower",
           moves="device_bytes_per_payload_byte -> ingest_stream"),
    # -- formats -----------------------------------------------------------
    Metric("formats.xtc.decode_host_ms_per_frame", "ms", "host", "lower",
           moves="host_us_per_op -> playback_scrub, ingest_stream"),
    Metric("formats.xtc.encode_host_ms_per_frame", "ms", "host", "lower",
           moves="host_us_per_op -> ingest_stream"),
    Metric("formats.xtc.decode_raw_mb_per_s", "MB/s", "host", "higher",
           moves="host_us_per_op -> playback_scrub"),
    Metric("formats.raw.decode_host_us_per_chunk", "us", "host", "lower",
           moves=f"host_us_per_op -> {_MIXED} (write path)"),
    Metric("formats.codecexec.tasks", "count", "count", "lower",
           moves="host_us_per_op -> ingest_stream (0 at serial workers)"),
    Metric("formats.frameindex.builds", "count", "count", "lower",
           moves="host_us_per_op -> playback_scrub, ingest_stream"),
    Metric("formats.host_self_share", "share", "host", "lower",
           moves=f"host_us_per_op -> playback_scrub, ingest_stream; "
                 f"< 5 % with vmd on {_WARM}"),
    # -- vmd ---------------------------------------------------------------
    Metric("vmd.loader.host_ms_per_load", "ms", "host", "lower",
           moves="host_us_per_op -> playback_scrub"),
    Metric("vmd.streaming.window_decodes", "count", "count", "lower",
           moves="host_us_per_op -> playback_scrub"),
    Metric("vmd.streaming.window_hit_ratio", "ratio", "count", "higher",
           moves="host_us_per_op -> playback_scrub"),
    Metric("vmd.render.host_ms_per_frame", "ms", "host", "lower",
           moves="host_us_per_op -> playback_scrub"),
    Metric("vmd.animation.cache_hit_ratio", "ratio", "count", "higher",
           moves="host_us_per_op -> playback_scrub"),
    Metric("vmd.host_self_share", "share", "host", "lower",
           moves="host_us_per_op -> playback_scrub"),
    # -- analysis ----------------------------------------------------------
    Metric("analysis.online.host_ms_per_frame", "ms", "host", "lower",
           moves="host_us_per_op -> ingest_insitu"),
    Metric("analysis.online.contacts_host_ms_per_frame", "ms", "host",
           "lower", moves="host_us_per_op -> ingest_insitu"),
    Metric("analysis.online.host_self_share", "share", "host", "lower",
           moves="host_us_per_op -> ingest_insitu"),
    Metric("analysis.sim_seconds", "s", "sim", "lower",
           moves="sim_makespan_s -> ingest_insitu (must stay <= 1 %)"),
    # -- validity ----------------------------------------------------------
    Metric("driver.host_self_share", "share", "host", "lower",
           moves="validity: run invalid above 0.10"),
    Metric("unattributed_host_share", "share", "host", "lower",
           moves="validity: run invalid above 0.10"),
    Metric("trace_overhead_share", "share", "host", "lower",
           moves="traced vs untraced measured phase of the same run"),
    Metric("failed_share", "share", "count", "lower",
           moves="raised, refused, degraded or mis-verified ops / attempted"),
]


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str  # one line, goes into BENCHMARK.json
    clients: str  # the closed loop's client count, stated
    #: default sizes at ``BASE_SECONDS``; ``slices`` scales with --seconds.
    sizes: Dict[str, int]
    smoke: Dict[str, int]


WORKLOADS: List[WorkloadSpec] = [
    WorkloadSpec(
        "ingest_stream",
        "write path alone: xtc decode, LOD/subset encode, preprocessor, "
        "ingest pipeline and PLFS writes; serve, cluster, cache, vmd idle",
        "1 client, closed loop",
        {"natoms": 4000, "seg_frames": 16, "keyframe_interval": 8,
         "window_frames": 8, "depth": 4, "ops_per_slice": 10,
         "slices": 11},
        {"natoms": 600, "seg_frames": 16, "keyframe_interval": 8,
         "window_frames": 8, "depth": 4, "ops_per_slice": 4,
         "slices": 3},
    ),
    WorkloadSpec(
        "ingest_insitu",
        "same write path with the default InSituAnalysis hook: O(N^2) "
        "contacts own the host clock while the model charges ~0.2 %",
        "1 client, closed loop",
        {"natoms": 300, "seg_frames": 4, "keyframe_interval": 4,
         "window_frames": 4, "depth": 4, "ops_per_slice": 10,
         "slices": 17},
        {"natoms": 300, "seg_frames": 4, "keyframe_interval": 4,
         "window_frames": 4, "depth": 4, "ops_per_slice": 4,
         "slices": 3},
    ),
    WorkloadSpec(
        "serve_warm",
        "hit path: working set fits the tenant cache, devices idle, so "
        "scheduler, sim engine, obs and cache lookups are the whole cost",
        "4 tenants, closed loop, Zipf(1.1)",
        {"ndatasets": 8, "nchunks": 16, "frames_per_chunk": 8,
         "natoms": 2000, "window_chunks": 4, "tenants": 4,
         "requests_per_tenant_slice": 30, "slices": 180},
        {"ndatasets": 3, "nchunks": 8, "frames_per_chunk": 4,
         "natoms": 400, "window_chunks": 4, "tenants": 4,
         "requests_per_tenant_slice": 10, "slices": 4},
    ),
    WorkloadSpec(
        "serve_sharded_mixed",
        "miss path with writes: 4 shards, cache = 1/16 of resident bytes, "
        "full+LOD readers beside an appending writer; opposite of serve_warm",
        "3 reader tenants + 1 writer tenant, closed loop, Zipf(1.1)",
        {"ndatasets": 8, "nchunks": 16, "frames_per_chunk": 8,
         "natoms": 2000, "window_chunks": 4, "nodes": 4,
         "replicas": 2, "cache_fraction_inv": 16,
         "requests_per_reader_slice": 24, "appends_per_slice": 9,
         "append_frames": 8, "slices": 45},
        {"ndatasets": 3, "nchunks": 8, "frames_per_chunk": 4,
         "natoms": 400, "window_chunks": 4, "nodes": 4, "replicas": 2,
         "cache_fraction_inv": 16, "requests_per_reader_slice": 8,
         "appends_per_slice": 3, "append_frames": 4, "slices": 4},
    ),
    WorkloadSpec(
        "playback_scrub",
        "the viewer: xtc decode, streaming window cache, loader and render "
        "dominate; full vs LOD on one script; serve and cluster bypassed",
        "1 viewer session, closed loop",
        {"natoms": 4000, "nframes": 256, "chunk_frames": 4,
         "window_chunks": 4, "forward_windows": 15, "lod_seeks": 16,
         "frame_seeks": 16, "slices": 20},
        {"natoms": 600, "nframes": 64, "chunk_frames": 4,
         "window_chunks": 4, "forward_windows": 3, "lod_seeks": 4,
         "frame_seeks": 4, "slices": 3},
    ),
]


def sizes_for(spec: WorkloadSpec, seconds: float, smoke: bool) -> Dict[str, int]:
    """Concrete sizes of one run: the slice *shape* is fixed, the slice
    *count* follows ``seconds`` so the measured phase lasts about that
    long on the reference box while staying a pure function of the
    arguments (simulated results must repeat exactly)."""
    sizes = dict(spec.smoke if smoke else spec.sizes)
    if not smoke:
        sizes["slices"] = max(3, round(sizes["slices"] * seconds / BASE_SECONDS))
    return sizes


def benchmark_json() -> dict:
    """What ``BENCHMARK.json`` must contain (see ``test_smoke.py``)."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": BASE_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }

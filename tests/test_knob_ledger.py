"""The knob ledger: every parameter of the public surface, by name.

ROADMAP gates each PR on "knob ledger net <= 0" -- a PR that adds a knob
must say which one it removes.  This file is that ledger: the parameter
names of the public constructors, the codec entry points and the seven
``run_*_bench`` harnesses, plus the CLI's option strings, compared with
the committed ``LEDGER`` below.  Adding, removing, renaming or reordering
a parameter fails tier-1 until its line is edited, so the diff of this
file *is* the PR's knob ledger.
"""

import inspect

import pytest

from repro.cli import BENCHES, build_parser
from repro.cluster.shard import ShardedADA, ShardNode
from repro.core.decompressor import Decompressor
from repro.core.ingest import IngestPipelineConfig
from repro.core.middleware import ADA
from repro.core.prefetch import Prefetcher
from repro.core.preprocessor import DataPreProcessor
from repro.formats.codecexec import CodecPool, shared_pool
from repro.formats.xtc import decode_frame_range, decode_xtc, encode_xtc
from repro.fs.cache import BlockCache
from repro.serve import ServeFront
from repro.serve.fairshare import TenantBlockCache
from repro.vmd.loader import TrajectoryLoader
from repro.vmd.streaming import StreamingTrajectory

LEDGER = {
    "ADA": (
        "sim backends policy placement storage_cpu storage_cpus "
        "metadata_backend indexer_latency_s subset_format workers "
        "spill_on_full retry_policy fault_plan block_cache coalesce prefetch "
        "serial_requests ingest_config lod_precision "
        "metrics tracer shard_id"
    ),
    "ShardedADA": (
        "sim nodes replicas replicated_tags ring_vnodes ring_seed fault_plan "
        "retry_policy metrics affinity_slack affinity_bytes_slack"
    ),
    "ShardNode.build": "sim name backends metrics ada_kwargs",
    "ServeFront": "ada concurrency fault_plan retry_policy lod_backlog",
    "BlockCache": (
        "sim l1_capacity_bytes l2_capacity_bytes l1_bandwidth l2_bandwidth "
        "l2_latency_s metrics metric_labels"
    ),
    "TenantBlockCache": "sim quotas tenant_source kwargs",
    "Prefetcher": (
        "sim retriever high_watermark degradation_source max_inflight "
        "metrics tenant_source budget_source metric_labels"
    ),
    "IngestPipelineConfig": (
        "window_frames depth max_buffered_bytes coalesce pipelined analysis"
    ),
    "Decompressor": "workers index_cache_size metrics",
    "DataPreProcessor": "policy subset_format workers lod_precision metrics",
    "TrajectoryLoader": "workers",
    "StreamingTrajectory": (
        "xtc_bytes window_frames max_windows index prefetch pressure_fn "
        "pressure_watermark workers lod_bytes lod_max_error precision"
    ),
    "CodecPool": "workers metrics",
    "shared_pool": "workers metrics",
    "encode_xtc": "trajectory precision level keyframe_interval workers executor",
    "decode_xtc": "data atom_indices workers index executor",
    "decode_frame_range": "data start stop index workers executor",
    "run_cluster_bench": (
        "node_counts ntenants ndatasets natoms nchunks frames_per_chunk "
        "window_chunks requests_per_tenant concurrency max_inflight "
        "l1_capacity_kib replicas zipf_s seed kill_at_fraction"
    ),
    "run_codec_bench": "natoms nframes keyframe_interval workers repeats seed",
    "run_ingest_bench": (
        "natoms nframes keyframe_interval window_frames depth seed workers"
    ),
    "run_insitu_bench": (
        "natoms nframes keyframe_interval window_frames depth seed"
    ),
    "run_lod_bench": (
        "natoms nchunks frames_per_chunk window_chunks seed lod_precision "
        "precision"
    ),
    "run_pipeline_bench": (
        "natoms nchunks frames_per_chunk window_chunks seed"
    ),
    "run_serve_bench": (
        "ntenants ndatasets natoms nchunks frames_per_chunk window_chunks "
        "requests_per_tenant concurrency max_inflight l1_capacity_kib zipf_s "
        "seed"
    ),
    "python -m repro": (
        "--concurrency --depth --directory --frames-per-chunk --help --json "
        "--keyframe-interval --lod-precision --logical --natoms --nchunks "
        "--ndatasets --nframes --nodes --output --precision --rate --repeats "
        "--replicas --requests-per-tenant --rounds --seed --selftest --tag "
        "--tenants --window-chunks --window-frames --workers --zipf -d -h -o"
    ),
}

_CALLABLES = {
    "ADA": ADA,
    "ShardedADA": ShardedADA,
    "ShardNode.build": ShardNode.build,
    "ServeFront": ServeFront,
    "BlockCache": BlockCache,
    "TenantBlockCache": TenantBlockCache,
    "Prefetcher": Prefetcher,
    "IngestPipelineConfig": IngestPipelineConfig,
    "Decompressor": Decompressor,
    "DataPreProcessor": DataPreProcessor,
    "TrajectoryLoader": TrajectoryLoader,
    "StreamingTrajectory": StreamingTrajectory,
    "CodecPool": CodecPool,
    "shared_pool": shared_pool,
    "encode_xtc": encode_xtc,
    "decode_xtc": decode_xtc,
    "decode_frame_range": decode_frame_range,
    **{bench.run.__name__: bench.run for bench in BENCHES.values()},
}


def _knobs(entry: str) -> list:
    if entry == "python -m repro":
        return sorted(
            option
            for action in build_parser()._actions
            for option in action.option_strings
        )
    return list(inspect.signature(_CALLABLES[entry]).parameters)


def test_ledger_covers_the_whole_surface():
    assert set(LEDGER) == set(_CALLABLES) | {"python -m repro"}


@pytest.mark.parametrize("entry", sorted(LEDGER))
def test_surface_matches_the_committed_ledger(entry):
    assert _knobs(entry) == LEDGER[entry].split(), (
        f"{entry} changed its parameters: edit its LEDGER line in this "
        "file and say in CHANGES.md which knob pays for any added one"
    )

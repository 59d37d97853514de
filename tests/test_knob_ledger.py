"""The knob ledger: every parameter of the public surface, by name.

ROADMAP gates each PR on "knob ledger net <= 0" -- a PR that adds a knob
must say which one it removes.  This file is that ledger: the parameter
names of the public constructors, the codec entry points and the seven
``run_*_bench`` harnesses, plus the CLI's option strings, compared with
the committed ``LEDGER`` below.  Adding, removing, renaming or reordering
a parameter fails tier-1 until its line is edited, so the diff of this
file *is* the PR's knob ledger.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.cli import BENCHES, build_parser
from repro.cluster.shard import ShardedADA, ShardNode
from repro.core.decompressor import Decompressor
from repro.core.ingest import IngestPipelineConfig
from repro.core.middleware import ADA
from repro.core.prefetch import Prefetcher
from repro.core.preprocessor import DataPreProcessor
from repro.faults import RetryPolicy
from repro.formats.xtc import decode_frame_range, decode_xtc, encode_xtc
from repro.fs.cache import BlockCache
from repro.serve import ServeFront, TrafficConfig
from repro.serve.fairshare import TenantBlockCache
from repro.vmd.animation import Animator
from repro.vmd.loader import TrajectoryLoader
from repro.vmd.streaming import StreamingTrajectory

LEDGER = {
    "ADA": (
        "sim backends policy placement storage_cpu storage_cpus "
        "subset_format retry_policy block_cache prefetch "
        "serial_requests ingest_config lod_precision "
        "metrics shard_id"
    ),
    "ShardedADA": (
        "sim nodes replicas metrics affinity_bytes_slack"
    ),
    "ShardNode.build": "sim name backends metrics ada_kwargs",
    "ServeFront": "ada concurrency",
    "ServeFront.register": (
        "name max_inflight cache_quota_bytes prefetch_budget_bytes precision"
    ),
    "TrafficConfig": (
        "mode requests_per_tenant window_chunks arrival_rate_hz zipf_s seed"
    ),
    "BlockCache": (
        "sim l1_capacity_bytes l2_capacity_bytes"
    ),
    "TenantBlockCache": "sim tenant_source kwargs",
    "Prefetcher": (
        "sim retriever degradation_source metrics metric_labels"
    ),
    "IngestPipelineConfig": (
        "window_frames depth max_buffered_bytes coalesce pipelined"
    ),
    "Decompressor": "",
    "DataPreProcessor": "policy subset_format lod_precision",
    "TrajectoryLoader": "",
    "StreamingTrajectory": (
        "xtc_bytes window_frames max_windows index "
        "lod_bytes lod_max_error precision"
    ),
    "Animator": "molecule cache_frames",
    "RetryPolicy": "max_retries seed",
    "encode_xtc": "trajectory precision keyframe_interval",
    "decode_xtc": "data index",
    "decode_frame_range": "data start stop index",
    "run_cluster_bench": (
        "node_counts ntenants ndatasets natoms nchunks frames_per_chunk "
        "window_chunks requests_per_tenant concurrency max_inflight "
        "l1_capacity_kib replicas zipf_s seed kill_at_fraction"
    ),
    "run_codec_bench": "natoms nframes keyframe_interval repeats seed",
    "run_ingest_bench": (
        "natoms nframes keyframe_interval window_frames depth seed"
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
        "--tenants --window-chunks --window-frames --zipf -d -h -o"
    ),
}

_CALLABLES = {
    "ADA": ADA,
    "ShardedADA": ShardedADA,
    "ShardNode.build": ShardNode.build,
    "ServeFront": ServeFront,
    "ServeFront.register": ServeFront.register,
    "TrafficConfig": TrafficConfig,
    "BlockCache": BlockCache,
    "TenantBlockCache": TenantBlockCache,
    "Prefetcher": Prefetcher,
    "IngestPipelineConfig": IngestPipelineConfig,
    "Decompressor": Decompressor,
    "DataPreProcessor": DataPreProcessor,
    "TrajectoryLoader": TrajectoryLoader,
    "StreamingTrajectory": StreamingTrajectory,
    "Animator": Animator,
    "RetryPolicy": RetryPolicy,
    "encode_xtc": encode_xtc,
    "decode_xtc": decode_xtc,
    "decode_frame_range": decode_frame_range,
    **{bench.run.__name__: bench.run for bench in BENCHES.values()},
}


def _parameters(entry: str) -> dict:
    """An entry's signature parameters (a method's without ``self``)."""
    params = dict(inspect.signature(_CALLABLES[entry]).parameters)
    params.pop("self", None)
    return params


def _knobs(entry: str) -> list:
    if entry == "python -m repro":
        return sorted(
            option
            for action in build_parser()._actions
            for option in action.option_strings
        )
    return list(_parameters(entry))


def test_ledger_covers_the_whole_surface():
    assert set(LEDGER) == set(_CALLABLES) | {"python -m repro"}


@pytest.mark.parametrize("entry", sorted(LEDGER))
def test_surface_matches_the_committed_ledger(entry):
    assert _knobs(entry) == LEDGER[entry].split(), (
        f"{entry} changed its parameters: edit its LEDGER line in this "
        "file and say in CHANGES.md which knob pays for any added one"
    )


# -- the caller audit ----------------------------------------------------------
#
# A parameter nobody passes is a constant with extra steps: every product
# caller gets the default, and only tests can reach the other path.  The
# audit walks every call under ``src/``, ``benchmarks/`` and ``examples/``
# (tests do not count as callers) and requires each parameter of the
# ledger's constructors and codec entry points to be passed by someone,
# or to sit in ``KEPT_FOR`` with the reason it stays.  The ``run_*_bench``
# workload sizes are out of scope: each is the one statement of a default
# (``repro.cli.BENCHES``), set by the CLI's flags and the harness tests.

_ROOT = Path(__file__).resolve().parents[1]
_AUDITED_DIRS = ("src", "benchmarks", "examples")
_AUDITED = [
    entry for entry in _CALLABLES if not entry.startswith("run_")
]

#: ``**kwargs`` forwarders, by the name they are called under -> the ledger
#: entry that receives the keywords they do not name themselves.
_FORWARDS_TO = {
    "hdd_ada": "ADA",
    "deployment": "ADA",
    "ShardNode.build": "ADA",
    "TenantBlockCache": "BlockCache",
}

#: Methods audited by the attribute they are called under, whatever the
#: receiver is named: ``front.register(...)`` is ``ServeFront.register``.
_METHODS = {"register": "ServeFront.register"}

#: Parameters without a product caller, kept on purpose: the reason.
KEPT_FOR = {
    ("decode_xtc", "index"): "public API (docs/api.md): callers holding a "
    "FrameIndex skip the header scan; Decompressor passes its cached one "
    "to decode_frame_range, which decode_xtc wraps",
    ("encode_xtc", "precision"): "public codec API (test_encode_golden pins "
    "it); the pre-processor's LOD tier passes its precision to _encode_xtc, "
    "the kernel beneath, which the ingest read-ahead runs off the caller's "
    "thread",
    ("StreamingTrajectory", "index"): "callers holding a FrameIndex skip the "
    "header scan (tests/vmd viewer budget counts index builds)",
    ("StreamingTrajectory", "precision"): "the starting tier; mutable after",
    ("TenantBlockCache", "tenant_source"): "a test substitutes a fake tenant",
}


def _call_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and (
            f"{func.value.id}.{func.attr}" in _CALLABLES
        ):
            return f"{func.value.id}.{func.attr}"
        return _METHODS.get(func.attr, func.attr)
    return ""


def _named_params(entry: str) -> list:
    return [
        name
        for name, param in _parameters(entry).items()
        if param.kind is not inspect.Parameter.VAR_KEYWORD
    ]


def _passed_parameters() -> set:
    """Every ``(ledger entry, parameter)`` some product call site passes."""
    passed = set()
    for top in _AUDITED_DIRS:
        for path in sorted((_ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = _call_name(node.func)
                own = _named_params(name) if name in _CALLABLES else []
                target = _FORWARDS_TO.get(name)
                for position, arg in enumerate(node.args):
                    if position < len(own) and not isinstance(
                        arg, ast.Starred
                    ):
                        passed.add((name, own[position]))
                for keyword in node.keywords:
                    if keyword.arg in own:
                        passed.add((name, keyword.arg))
                    elif keyword.arg is not None and target is not None:
                        passed.add((target, keyword.arg))
    return passed


def test_every_knob_has_a_caller():
    passed = _passed_parameters()
    orphans = {
        (entry, name)
        for entry in _AUDITED
        for name in _named_params(entry)
        if (entry, name) not in passed
    }
    unexplained = sorted(orphans - set(KEPT_FOR))
    assert not unexplained, (
        f"{unexplained} are passed by no caller under "
        f"{'/, '.join(_AUDITED_DIRS)}/: make each a constant, or add it to "
        "KEPT_FOR with the reason it stays"
    )
    stale = sorted(set(KEPT_FOR) - orphans)
    assert not stale, f"{stale} have a caller now (or are gone): drop them"

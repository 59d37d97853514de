"""The shared data plane: ``ADA`` and ``ShardedADA`` are one surface.

The public read and ingest methods, tier resolution, whole-dataset reads
and tag/LOD metadata are defined once on
:class:`~repro.core.dataplane.DataPlane`; the two fronts differ only in
storage hooks and routing.  These tests pin that shape so the copies
cannot grow back.
"""

import inspect

import pytest

from repro.cluster.shard import ShardedADA
from repro.core import ADA
from repro.core.dataplane import DataPlane

#: Policy that must exist exactly once -- on the base, never re-declared.
SHARED_POLICY = (
    "_resolve_tier", "fetch_all", "has_lod", "lod_bound", "tags", "all_tags",
)

#: Entry points the end-to-end benchmark patches on each class by name:
#: each front names them, as aliases of the one ``DataPlane`` body.
TRACED_ENTRY_POINTS = (
    "fetch", "fetch_chunks", "fetch_merged",
    "ingest", "ingest_append", "ingest_stream",
)


def _public_methods(cls):
    return {
        name
        for name, member in inspect.getmembers(cls, inspect.isfunction)
        if not name.startswith("_")
    }


def test_shared_public_methods_have_equal_signatures():
    shared = _public_methods(ADA) & _public_methods(ShardedADA)
    assert set(TRACED_ENTRY_POINTS) <= shared
    assert {"fetch_all", "lod_bound", "remove", "has_lod"} <= shared
    for name in sorted(shared):
        assert inspect.signature(getattr(ADA, name)) == inspect.signature(
            getattr(ShardedADA, name)
        ), name


@pytest.mark.parametrize("cls", [ADA, ShardedADA])
def test_shared_policy_is_not_redeclared(cls):
    for name in SHARED_POLICY:
        assert name in DataPlane.__dict__, name
        assert name not in cls.__dict__, f"{cls.__name__}.{name}"


@pytest.mark.parametrize("cls", [ADA, ShardedADA])
def test_traced_entry_points_stay_defined_on_each_class(cls):
    for name in TRACED_ENTRY_POINTS:
        assert name in cls.__dict__, f"{cls.__name__}.{name}"


def test_each_entry_point_has_one_body():
    for name in (*TRACED_ENTRY_POINTS, "container_nbytes"):
        assert (
            getattr(ADA, name)
            is getattr(ShardedADA, name)
            is DataPlane.__dict__[name]
        ), name


def test_benchmark_tracer_installs_and_uninstalls():
    """``benchmarks/e2e`` resolves its targets through ``cls.__dict__``:
    an entry point that slides into the base class must fail here, in
    tier-1, not only in the CI bench-smoke job."""
    trace = pytest.importorskip("benchmarks.e2e.trace")
    before = {
        cls: {name: cls.__dict__[name] for name in TRACED_ENTRY_POINTS}
        for cls in (ADA, ShardedADA)
    }
    tracer = trace.HostTracer()
    tracer.install()
    try:
        assert ADA.__dict__["fetch"] is not before[ADA]["fetch"]
    finally:
        tracer.uninstall()
    for cls, originals in before.items():
        for name, original in originals.items():
            assert cls.__dict__[name] is original

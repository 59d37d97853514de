"""Property tests: online operators match their batch counterparts at any
window split.

The fused in-situ analysis stage feeds :class:`InSituAnalysis` one
ingest-window-sized slab at a time; the equivalence contract (see
``repro/analysis/online.py``) says the per-frame operators are *exact* --
bit-identical to the batch functions at any split -- and
:class:`OnlineStats` matches within ``STATS_RTOL``/``STATS_ATOL``.  The
split is therefore a property dimension here: random boundaries, one
frame per window, and the whole stream as a single window must all agree.

The chaos half drives the real fused ingest path under injected transient
faults and checks that retried deliveries never double-count frames.
"""

import numpy as np
import pytest

from repro.analysis import (
    STATS_ATOL,
    STATS_RTOL,
    InSituAnalysis,
    OnlineContacts,
    OnlineObservables,
    OnlineRMSD,
    OnlineStats,
    block_average,
    center_of_mass,
    contact_count,
    end_to_end_distance,
    gyration_radius,
    mean_square_displacement,
    native_contact_fraction,
    rmsd_trajectory,
)
from repro.errors import ConfigurationError, TopologyError
from repro.formats.trajectory import Trajectory

pytestmark = pytest.mark.analysis


def _trajectory(nframes=48, natoms=40, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-8.0, 8.0, size=(natoms, 3)).astype(np.float32)
    drift = (
        rng.standard_normal((nframes, natoms, 3)).astype(np.float32)
    ).cumsum(axis=0) * 0.05
    coords = base[None, :, :] + drift
    return Trajectory(
        coords=coords,
        steps=np.arange(nframes, dtype=np.int64),
        times_ps=np.arange(nframes, dtype=np.float64) * 2.0,
    )


def _random_splits(nframes, rng):
    ncuts = int(rng.integers(1, min(8, nframes)))
    cuts = sorted(
        rng.choice(np.arange(1, nframes), size=ncuts, replace=False).tolist()
    )
    bounds = [0] + cuts + [nframes]
    return list(zip(bounds[:-1], bounds[1:]))


def _split_cases(nframes, seed):
    rng = np.random.default_rng(seed + 1000)
    return {
        "random": _random_splits(nframes, rng),
        "per_frame": [(i, i + 1) for i in range(nframes)],  # window_frames=1
        "whole_stream": [(0, nframes)],  # one window spanning everything
    }


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("split", ["random", "per_frame", "whole_stream"])
def test_online_frame_operators_exact_at_any_split(seed, split):
    traj = _trajectory(seed=seed)
    windows = _split_cases(traj.nframes, seed)[split]
    hook = InSituAnalysis()
    for start, stop in windows:
        hook.consume(start, stop, traj.coords[start:stop])
    res = hook.results()
    assert res["frames"] == traj.nframes
    assert res["windows"] == len(windows)
    # Per-frame operators: bit-for-bit against the batch functions.
    assert np.array_equal(res["rmsd"], rmsd_trajectory(traj))
    assert np.array_equal(res["contacts"], contact_count(traj))
    assert np.array_equal(
        res["native_fraction"], native_contact_fraction(traj)
    )
    assert np.array_equal(res["center_of_mass"], center_of_mass(traj))
    assert np.array_equal(res["gyration_radius"], gyration_radius(traj))
    assert np.array_equal(res["end_to_end"], end_to_end_distance(traj))
    assert np.array_equal(res["msd"], mean_square_displacement(traj))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("split", ["random", "per_frame", "whole_stream"])
def test_online_stats_match_batch_within_tolerance(seed, split):
    rng = np.random.default_rng(seed)
    series = rng.standard_normal(96).cumsum() * 0.1 + 3.0
    stats = OnlineStats()
    for start, stop in _split_cases(series.size, seed)[split]:
        stats.add(series[start:stop])
    assert stats.count == series.size
    assert stats.mean == pytest.approx(
        float(series.mean()), rel=STATS_RTOL, abs=STATS_ATOL
    )
    assert stats.variance(ddof=0) == pytest.approx(
        float(series.var(ddof=0)), rel=STATS_RTOL, abs=STATS_ATOL
    )
    online_rows = stats.blocks()
    batch_rows = block_average(series)
    assert len(online_rows) == len(batch_rows)
    for online, batch in zip(online_rows, batch_rows):
        assert online.block_size == batch.block_size
        assert online.nblocks == batch.nblocks
        assert online.mean == pytest.approx(
            batch.mean, rel=STATS_RTOL, abs=STATS_ATOL
        )
        assert online.stderr == pytest.approx(
            batch.stderr, rel=STATS_RTOL, abs=STATS_ATOL
        )


def test_online_stats_memory_is_logarithmic():
    stats = OnlineStats()
    stats.add(np.arange(4096, dtype=np.float64))
    assert len(stats._levels) <= 14  # log2(4096) + slack, not O(n)


def test_individual_operators_accept_custom_references():
    traj = _trajectory(seed=7)
    ref = traj.coords[3]
    online = OnlineRMSD(reference=ref)
    online.update(traj.coords)
    assert np.array_equal(
        online.result()["rmsd"], rmsd_trajectory(traj, reference_frame=3)
    )
    contacts = OnlineContacts(reference=ref)
    contacts.update(traj.coords)
    assert np.array_equal(
        contacts.result()["native_fraction"],
        native_contact_fraction(traj, reference_frame=3),
    )


def test_online_observables_need_two_atoms():
    with pytest.raises(TopologyError):
        OnlineObservables().update(np.zeros((2, 1, 3), dtype=np.float32))


def test_replayed_window_is_ignored_not_double_counted():
    traj = _trajectory(nframes=12, seed=3)
    hook = InSituAnalysis()
    hook.consume(0, 4, traj.coords[0:4])
    hook.consume(4, 8, traj.coords[4:8])
    # Retried delivery of an already-consumed window: ignored.
    assert hook.consume(4, 8, traj.coords[4:8]) == 0
    assert hook.consume(0, 4, traj.coords[0:4]) == 0
    hook.consume(8, 12, traj.coords[8:12])
    res = hook.results()
    assert res["frames"] == 12
    assert res["replays_ignored"] == 2
    assert np.array_equal(res["rmsd"], rmsd_trajectory(traj))


def test_window_gap_raises():
    traj = _trajectory(nframes=12, seed=3)
    hook = InSituAnalysis()
    hook.consume(0, 4, traj.coords[0:4])
    with pytest.raises(ConfigurationError):
        hook.consume(8, 12, traj.coords[8:12])


def test_window_frame_count_mismatch_raises():
    traj = _trajectory(nframes=12, seed=3)
    hook = InSituAnalysis()
    with pytest.raises(ConfigurationError):
        hook.consume(0, 4, traj.coords[0:3])


def test_online_stats_validates_min_blocks():
    with pytest.raises(ConfigurationError):
        OnlineStats(min_blocks=1)


def test_contact_free_reference_drops_default_contacts_operator():
    # Two atoms 100 A apart: no contacts at the default cutoff.  The
    # default bundle drops OnlineContacts instead of failing the ingest.
    coords = np.zeros((6, 2, 3), dtype=np.float32)
    coords[:, 1, 0] = 100.0
    hook = InSituAnalysis(stats_over=())
    hook.consume(0, 6, coords)
    res = hook.results()
    assert "contacts" not in res
    assert "rmsd" in res and res["frames"] == 6


# -- chaos: the fused ingest path under transient faults ---------------------


def _backends(sim, prefix="", transient_rate=0.3):
    """An ssd+hdd pair whose every operation fails transiently at the
    given rate."""
    from repro.faults import FaultPlan, FaultSpec
    from repro.fs import LocalFS
    from repro.storage import DevicePower, DeviceSpec
    from repro.units import GB, mbps

    backends = {}
    for tier in ("ssd", "hdd"):
        name = prefix + tier
        spec = DeviceSpec(
            name=name,
            read_bw=mbps(1000),
            write_bw=mbps(1000),
            seek_latency_s=0.0,
            capacity=100 * GB,
            power=DevicePower(active_w=5.0, idle_w=1.0),
        )
        fs = LocalFS(sim, spec, name=name, metadata_latency_s=0.0)
        if transient_rate:
            FaultPlan(
                seed=3,
                sites={f"fs:{name}": FaultSpec(transient_rate=transient_rate)},
            ).attach(fs)
        backends[tier] = fs
    return backends


def _faulty_ada(sim):
    from repro.core import ADA
    from repro.faults import RetryPolicy

    ada = ADA(
        sim, backends=_backends(sim),
        retry_policy=RetryPolicy(max_retries=8, seed=3),
    )
    return ada, {}


def _faulty_cluster(sim):
    from repro.cluster.shard import ShardNode, ShardedADA
    from repro.faults import RetryPolicy
    from repro.obs.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim, f"node{i}", backends=_backends(sim, f"node{i}:"),
            metrics=metrics, retry_policy=RetryPolicy(max_retries=8, seed=3),
        )
        for i in range(3)
    ]
    front = ShardedADA(sim, nodes, metrics=metrics)
    return front, {"shard": "front"}


@pytest.mark.chaos
@pytest.mark.parametrize(
    "build", [_faulty_ada, _faulty_cluster], ids=["ada", "sharded"]
)
def test_fused_ingest_retries_never_double_count(build):
    """The same fused stream through a bare middleware and through a
    3-node sharded front: bit-identical to batch, hence to each other."""
    from repro.core import ADA, IngestPipelineConfig
    from repro.core.decompressor import Decompressor
    from repro.sim import Simulator
    from repro.workloads import build_workload

    workload = build_workload(
        natoms=300, nframes=32, seed=11, keyframe_interval=4
    )

    def fused_ingest(sim, ada, hook):
        return sim.run_process(
            ada.ingest_stream(
                "chaos.xtc", workload.xtc_blob, pdb_text=workload.pdb_text,
                config=IngestPipelineConfig(window_frames=4, depth=3),
                analysis=hook,
            )
        )

    sim = Simulator()
    ada, labels = build(sim)
    hook = InSituAnalysis()
    receipt = fused_ingest(sim, ada, hook)
    # Retries were actually exercised...
    assert sum(
        ada.metrics.query("retry_transient_faults_total").values()
    ) > 0
    # ...and the online state counted every frame exactly once.
    decoded = Decompressor().decompress(workload.xtc_blob)
    res = receipt.analysis
    assert res["frames"] == decoded.nframes
    assert hook.frames_seen == decoded.nframes
    assert np.array_equal(res["rmsd"], rmsd_trajectory(decoded))
    assert np.array_equal(res["contacts"], contact_count(decoded))
    assert (
        int(ada.metrics.counter("analysis_frames_total", **labels).value)
        == decoded.nframes
    )
    # Key for key the receipt of a clean single-node run of the stream.
    clean_sim = Simulator()
    clean = fused_ingest(
        clean_sim,
        ADA(clean_sim, backends=_backends(clean_sim, transient_rate=0.0)),
        InSituAnalysis(),
    )
    assert receipt.subset_sizes == clean.subset_sizes
    assert res.keys() == clean.analysis.keys()
    for key, value in clean.analysis.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(res[key], value), key
    # What landed is the stream itself, whichever front wrote it.
    merged = sim.run_process(ada.fetch_merged("chaos.xtc"))
    assert np.array_equal(merged.coords, decoded.coords)

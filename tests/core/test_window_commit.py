"""A stream window lands as one span per backend plus one index append.

The write schedule under test: ``IODispatcher.dispatch_run`` groups a
window's tags by the backend they place on -- not by consecutive runs, which
with ``lod:`` siblings interleave ``hdd, ssd, hdd, ssd`` and never merged --
and ``PLFS.commit`` indexes the whole window with a single log append.
Counted, not timed: ``device_ops_total{op="write"}`` per device for one
appended window, and the devices' ``plfs-index`` busy intervals.

The failure contract rides along: the index append retries alone (no data
span is rewritten), an exhausted retry leaves nothing of the window behind
and burns its chunk names, and a full SSD spills only the SSD group.
"""

import pytest

from repro.cluster.shard import ShardedADA, ShardNode
from repro.core import ADA, IngestPipelineConfig
from repro.errors import FaultError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.formats.xtc import encode_xtc
from repro.fs import PLFS, LocalFS
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, mbps
from repro.workloads import build_workload

LOGICAL = "window.xtc"
CONFIG = IngestPipelineConfig(window_frames=8)
WINDOW_TAGS = ["lod:m", "lod:p", "m", "p"]


def _fs(sim, name, capacity=100 * GB):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(1000),
        write_bw=mbps(1000),
        seek_latency_s=8e-3,
        capacity=capacity,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name)


@pytest.fixture(scope="module")
def stream():
    """``(pdb_text, first segment, second segment)``: 8 frames each, so
    every ``ingest_stream`` call at ``CONFIG`` is exactly one window."""
    workload = build_workload(natoms=300, nframes=16, seed=3, keyframe_interval=4)
    segments = [
        encode_xtc(workload.trajectory.slice_frames(lo, lo + 8), keyframe_interval=4)
        for lo in (0, 8)
    ]
    return (workload.pdb_text, *segments)


def _writes(metrics, devices):
    return {
        d: metrics.value("device_ops_total", device=d, op="write")
        for d in devices
    }


def _ingest(front, segment, pdb_text=None):
    """One window: fresh with ``pdb_text``, appended without."""
    return front.sim.run_process(
        front.ingest_stream(LOGICAL, segment, pdb_text=pdb_text, config=CONFIG)
    )


def _appended_window(front, stream, devices):
    """Ingest the first window fresh, then append the second; returns the
    device write ops the appended window alone issued."""
    pdb_text, first, second = stream
    _ingest(front, first, pdb_text)
    before = _writes(front.metrics, devices)
    _ingest(front, second)
    after = _writes(front.metrics, devices)
    return {d: after[d] - before[d] for d in devices}


def _index_appends(fs):
    return [label for *_, label in fs.device.busy.intervals].count("plfs-index")


# -- the write schedule, counted ----------------------------------------------


def test_two_tier_window_is_one_span_per_backend_plus_one_append(stream):
    sim = Simulator()
    ada = ADA(
        sim, backends={"ssd": _fs(sim, "ssd"), "hdd": _fs(sim, "hdd")},
        lod_precision=12.5,
    )
    writes = _appended_window(ada, stream, ["ssd", "hdd"])
    # The tags interleave across tiers in sorted order...
    assert ada.all_tags(LOGICAL) == WINDOW_TAGS
    assert [ada.placement.backend_for(t) for t in WINDOW_TAGS] == [
        "hdd", "ssd", "hdd", "ssd",
    ]
    # ...yet each tier sees one span, and the metadata disk one append
    # (consecutive runs cost 2 SSD and 4 + 2 HDD writes).
    assert writes == {"ssd": 1, "hdd": 2}
    assert _index_appends(ada.plfs.backends["hdd"]) == 2  # one per window
    assert _index_appends(ada.plfs.backends["ssd"]) == 0
    value = ada.metrics.value
    assert value("dispatcher_coalesced_runs_total") == 2 * 2
    assert value("dispatcher_requests_saved_total") == 2 * 2


def test_single_backend_window_is_one_span_plus_one_append(stream):
    sim = Simulator()
    ada = ADA(sim, backends={"hdd": _fs(sim, "hdd")}, lod_precision=12.5)
    assert _appended_window(ada, stream, ["hdd"]) == {"hdd": 2}
    assert ada.all_tags(LOGICAL) == WINDOW_TAGS


def test_sharded_window_is_one_append_per_holder_node(stream):
    sim = Simulator()
    names = [f"node{i}" for i in range(4)]
    metrics = MetricsRegistry()
    nodes = [
        ShardNode.build(
            sim, name, backends={"hdd": _fs(sim, name)}, metrics=metrics,
            lod_precision=12.5,
        )
        for name in names
    ]
    sharded = ShardedADA(sim, nodes, replicas=2, metrics=metrics)
    writes = _appended_window(sharded, stream, names)
    held = {
        name: [t for t in WINDOW_TAGS if name in sharded.holders(LOGICAL, t)]
        for name in names
    }
    # Five (tag, holder) copies on four nodes: some node holds two tags,
    # and it still pays one span and one append for the window.
    assert sum(len(tags) for tags in held.values()) == 5
    assert max(len(tags) for tags in held.values()) >= 2
    for node in nodes:
        fs = node.ada.plfs.backends["hdd"]
        holds = 1 if held[node.name] else 0
        assert writes[node.name] == 2 * holds, node.name
        assert _index_appends(fs) == 2 * holds, node.name


def test_no_read_lands_between_a_span_and_its_index_append(stream):
    """A reader hammering the metadata disk while a window lands: the
    read that queues behind the span waits for the window's append too,
    so the disk serves span and append back to back (without the hold it
    serves span, read, append -- and the reader's next read waits a whole
    append)."""
    pdb_text, first, second = stream
    sim = Simulator()
    ada = ADA(sim, backends={"hdd": _fs(sim, "hdd")}, lod_precision=12.5)
    _ingest(ada, first, pdb_text)
    hdd = ada.plfs.backends["hdd"]
    path = ada.plfs.subset_records(LOGICAL, "m")[0].path
    landed = []

    def reader():
        while not landed:
            yield from hdd.read(path)

    def writer():
        yield from ada.ingest_stream(LOGICAL, second, config=CONFIG)
        landed.append(True)

    start = len(hdd.device.busy.intervals)
    sim.process(reader())
    sim.run_process(writer())
    labels = [label for *_, label in hdd.device.busy.intervals[start:]]
    assert labels.count("plfs") == 1 and "read" in labels
    span = labels.index("plfs")
    assert labels[span + 1] == "plfs-index"


# -- failure semantics ---------------------------------------------------------


def _three_disk_ada(sim, ssd_capacity=100 * GB, max_retries=4):
    """Two data tiers plus a metadata-only disk (``catalog`` sorts first,
    so PLFS keeps its index there): a fault plan on it hits the index
    appends and the label file, never a data span."""
    return ADA(
        sim,
        backends={
            "catalog": _fs(sim, "catalog"),
            "hdd": _fs(sim, "hdd"),
            "ssd": _fs(sim, "ssd", capacity=ssd_capacity),
        },
        lod_precision=12.5,
        retry_policy=RetryPolicy(max_retries=max_retries, seed=1),
    )


def _objects(ada):
    return {
        (name, path): fs.store.data(path)
        for name, fs in ada.plfs.backends.items()
        for path in fs.store.walk()
    }


def _device_bytes(ada, device):
    return ada.metrics.value("device_bytes_total", device=device, op="write")


def _assert_consistent(ada):
    assert ada.plfs.fsck(LOGICAL)["ok"]
    cold = PLFS(ada.sim, ada.plfs.backends)
    assert cold.container_index(LOGICAL) == ada.plfs.container_index(LOGICAL)


def test_index_append_fault_retries_without_rewriting_a_span(stream):
    pdb_text, first, second = stream
    sim = Simulator()
    ada = _three_disk_ada(sim, max_retries=8)
    _ingest(ada, first, pdb_text)
    catalog = ada.plfs.backends["catalog"]
    index_path = PLFS.index_path(LOGICAL)
    log_before = catalog.nbytes(index_path)
    devices = ["catalog", "hdd", "ssd"]
    ops_before = _writes(ada.metrics, devices)
    bytes_before = {d: _device_bytes(ada, d) for d in devices}
    faults_before = ada.metrics.value("retry_transient_faults_total")
    # At this seed the plan rejects the append three times, then admits it.
    plan = FaultPlan(seed=1, sites={"fs:catalog": FaultSpec(transient_rate=0.6)})
    plan.attach(catalog)
    receipt = _ingest(ada, second)
    assert plan.injected[("fs:catalog", "transient")] == 3
    assert ada.metrics.value("retry_transient_faults_total") - faults_before == 3
    ops = {d: v - ops_before[d] for d, v in _writes(ada.metrics, devices).items()}
    # One span per data tier, written once; one append reached the disk.
    assert ops == {"catalog": 1, "hdd": 1, "ssd": 1}
    # Device bytes = the window's payload once + its index lines once per
    # attempt that reached the device -- a rejected append fails at the
    # gate, before any transfer, so that is exactly one.
    payload = sum(receipt.subset_sizes.values())
    data_bytes = sum(_device_bytes(ada, d) - bytes_before[d] for d in ("hdd", "ssd"))
    assert data_bytes == payload
    log = catalog.data(index_path)
    lines = sum(map(len, log.splitlines(keepends=True)[-len(WINDOW_TAGS):]))
    assert len(log) - log_before == lines
    assert _device_bytes(ada, "catalog") - bytes_before["catalog"] == lines
    _assert_consistent(ada)


def test_exhausted_index_append_leaves_nothing_and_burns_the_names(stream):
    pdb_text, first, second = stream
    sim = Simulator()
    ada = _three_disk_ada(sim, max_retries=2)
    _ingest(ada, first, pdb_text)
    index = ada.plfs.container_index(LOGICAL)
    stored = _objects(ada)
    catalog = ada.plfs.backends["catalog"]
    FaultPlan(
        seed=0, sites={"fs:catalog": FaultSpec(transient_rate=1.0)}
    ).attach(catalog)
    with pytest.raises(FaultError):
        _ingest(ada, second)
    # No record, no chunk object on either data tier, no log line.
    assert ada.plfs.container_index(LOGICAL) == index
    assert _objects(ada) == stored
    _assert_consistent(ada)
    # The failed window's chunk numbers stay burnt: the retry lands on 2.
    catalog.faults = None
    _ingest(ada, second)
    for tag in WINDOW_TAGS:
        assert [r.chunk for r in ada.plfs.subset_records(LOGICAL, tag)] == [0, 2]
    _assert_consistent(ada)


def test_exhausted_span_rolls_back_the_group_that_landed(stream):
    pdb_text, first, second = stream
    sim = Simulator()
    ada = _three_disk_ada(sim, max_retries=1)
    _ingest(ada, first, pdb_text)
    index, stored = ada.plfs.container_index(LOGICAL), _objects(ada)
    before = _writes(ada.metrics, ["hdd"])["hdd"]
    ssd = ada.plfs.backends["ssd"]
    FaultPlan(seed=0, sites={"fs:ssd": FaultSpec(transient_rate=1.0)}).attach(ssd)
    with pytest.raises(FaultError):
        _ingest(ada, second)
    # The HDD group went out first and landed; the SSD group's exhausted
    # retry deleted it again.
    assert _writes(ada.metrics, ["hdd"])["hdd"] == before + 1
    assert ada.plfs.container_index(LOGICAL) == index
    assert _objects(ada) == stored
    _assert_consistent(ada)


def test_full_ssd_spills_only_the_ssd_group(stream):
    sim = Simulator()
    ada = _three_disk_ada(sim, ssd_capacity=16)
    writes = _appended_window(ada, stream, ["catalog", "hdd", "ssd"])
    # The HDD group's span, the spilled SSD group's span, one append.
    assert writes == {"catalog": 1, "hdd": 2, "ssd": 0}
    assert ada.determinator.dispatcher.spills == 2 * [
        (LOGICAL, "lod:p", "ssd", "hdd"), (LOGICAL, "p", "ssd", "hdd"),
    ]
    assert {r.backend for r in ada.plfs.container_index(LOGICAL)} == {"hdd"}
    _assert_consistent(ada)

"""Every ingest lands as one span per backend plus one index append.

The write schedule under test: ``IODispatcher.dispatch_run`` -- the one
write path of ``ingest``, ``ingest_append``, ``ingest_virtual`` and every
``ingest_stream`` window -- groups the tags by the backend they place on
(not by consecutive runs, which with ``lod:`` siblings interleave ``hdd,
ssd, hdd, ssd`` and never merged), writes the groups in parallel, and
``PLFS.commit`` indexes the lot with a single log append on the active
tier.  A window that is one group on the active tier (a one-disk node)
carries its index line in its own span write instead: the span's device
request, then the line's, so a read queued during the span goes between
them.  Counted, not timed: ``device_ops_total{op="write"}`` per device
for one appended window, and the devices' ``plfs-index`` busy intervals.

The failure contract rides along: the index append retries alone (no data
span is rewritten), a one-group window's span and line retry together, an
exhausted retry leaves nothing of the window behind and burns its chunk
names, a group that fails waits for the others and rolls them back, an
abandoned dispatch leaves no chunk and no capacity reservation, a full SSD
spills only the SSD group, and an index append or label file that finds
the SSD full spills to the HDD like a data run.
"""

import json

import pytest

from repro.cluster.shard import ShardedADA, ShardNode
from repro.core import ADA, IngestPipelineConfig, PlacementPolicy
from repro.errors import FaultError
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.faults.plan import TRANSIENT, FaultDecision
from repro.formats.xtc import encode_xtc
from repro.fs import PLFS, LocalFS
from repro.obs.metrics import MetricsRegistry
from repro.sim import Interrupt, Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, MB, mbps
from repro.workloads import build_workload

LOGICAL = "window.xtc"
INDEX = PLFS.index_path(LOGICAL)
CONFIG = IngestPipelineConfig(window_frames=8)
WINDOW_TAGS = ["lod:m", "lod:p", "m", "p"]


def _fs(sim, name, capacity=100 * GB, bw=1000):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(bw),
        write_bw=mbps(bw),
        seek_latency_s=8e-3,
        capacity=capacity,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name)


def _two_tier_ada(sim, ssd_bw=1000, hdd_bw=1000, ssd_capacity=100 * GB):
    """SSD + HDD; the index log and label file live on ``ssd``, the
    active tier."""
    return ADA(
        sim,
        backends={
            "ssd": _fs(sim, "ssd", capacity=ssd_capacity, bw=ssd_bw),
            "hdd": _fs(sim, "hdd", bw=hdd_bw),
        },
        lod_precision=12.5,
    )


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


def _window_bytes(ada, chunk):
    return sum(
        r.nbytes for t in WINDOW_TAGS for r in ada.plfs.subset_records(LOGICAL, t)
        if r.chunk == chunk
    )


# -- the write schedule, counted ----------------------------------------------


def test_two_tier_window_is_one_span_per_backend_plus_one_append(stream):
    sim = Simulator()
    ada = _two_tier_ada(sim)
    writes = _appended_window(ada, stream, ["ssd", "hdd"])
    # The tags interleave across tiers in sorted order...
    assert ada.all_tags(LOGICAL) == WINDOW_TAGS
    assert [ada.placement.backend_for(t) for t in WINDOW_TAGS] == [
        "hdd", "ssd", "hdd", "ssd",
    ]
    # ...yet each tier sees one span, and the active tier one append
    # (consecutive runs, one commit each, would cost 2 + 4 SSD and 2 HDD
    # writes).
    assert ada.plfs.metadata_backend == ada.placement.active_backend == "ssd"
    assert writes == {"ssd": 2, "hdd": 1}
    assert _index_appends(ada.plfs.backends["ssd"]) == 2  # one per window
    assert _index_appends(ada.plfs.backends["hdd"]) == 0
    value = ada.metrics.value
    assert value("dispatcher_coalesced_runs_total") == 2 * 2
    assert value("dispatcher_requests_saved_total") == 2 * 2


def _schedule_writes(ada):
    """Device writes per backend that carry chunks or index lines (the
    label file of a fresh dataset is not part of the write schedule)."""
    return {
        name: sum(label.startswith("plfs") for *_, label in fs.device.busy.intervals)
        for name, fs in ada.plfs.backends.items()
    }


@pytest.mark.parametrize("entry", ["ingest", "ingest_append", "ingest_virtual"])
def test_every_ingest_entry_point_lands_as_one_span_per_backend(stream, entry):
    """The monolithic and size-only ingests take the window's write path:
    four tags on two tiers cost 2 SSD + 1 HDD writes (one commit per tag
    would cost 6 + 2)."""
    pdb_text, first, second = stream
    sim = Simulator()
    ada = _two_tier_ada(sim)
    if entry == "ingest_append":
        sim.run_process(ada.ingest(LOGICAL, pdb_text, first))
    before = _schedule_writes(ada)
    if entry == "ingest":
        sim.run_process(ada.ingest(LOGICAL, pdb_text, first))
    elif entry == "ingest_append":
        sim.run_process(ada.ingest_append(LOGICAL, second))
    else:
        sim.run_process(ada.ingest_virtual(
            LOGICAL, ada.preprocessor.analyze_structure(pdb_text),
            {tag: 4096 for tag in WINDOW_TAGS}, compressed_nbytes=4096,
        ))
    after = _schedule_writes(ada)
    assert {d: after[d] - before[d] for d in after} == {"ssd": 2, "hdd": 1}
    assert ada.all_tags(LOGICAL) == WINDOW_TAGS


def test_size_only_store_overlaps_the_tiers():
    """The tiers write at once: a size-only store takes the slower tier's
    span plus the index append, not the sum of the spans (the write-side
    twin of ``test_parallel_subset_fetch_overlaps``)."""
    sim = Simulator()
    ada = _two_tier_ada(sim, ssd_bw=1000, hdd_bw=100)
    sizes = {"p": int(400 * MB), "m": int(100 * MB)}
    ssd_s = ada.plfs.backends["ssd"].device.spec.write_time(sizes["p"])
    hdd_s = ada.plfs.backends["hdd"].device.spec.write_time(sizes["m"])
    sim.run_process(ada.determinator.store(LOGICAL, sizes))
    # The HDD span, then one small append on the SSD; the SSD's 0.4 s
    # hides inside the HDD's 1 s.
    assert hdd_s < sim.now < hdd_s + 0.01 < hdd_s + ssd_s
    assert ada.plfs.container_nbytes(LOGICAL) == sum(sizes.values())
    assert _index_appends(ada.plfs.backends["ssd"]) == 1


def test_single_backend_window_is_one_span_plus_one_append(stream):
    """One disk holds data and index: the window's line rides its span's
    write, one span request then one line request (no separate commit).
    With no reader the line follows the span at once: the window costs
    what one write of both as two requests would."""
    sim = Simulator()
    ada = ADA(sim, backends={"hdd": _fs(sim, "hdd")}, lod_precision=12.5)
    hdd = ada.plfs.backends["hdd"]
    assert _appended_window(ada, stream, ["hdd"]) == {"hdd": 2}
    assert ada.all_tags(LOGICAL) == WINDOW_TAGS
    assert _index_appends(hdd) == 0
    assert len(_log_records(hdd)) == 2 * len(WINDOW_TAGS)
    (s0, e0, _), (s1, e1, _) = hdd.device.busy.intervals[-2:]
    assert e0 == s1
    lines = hdd.data(INDEX).splitlines(keepends=True)[-len(WINDOW_TAGS):]
    window = _window_bytes(ada, 1) + sum(map(len, lines))
    assert e1 - s0 == pytest.approx(hdd.device.spec.write_time(window, 2))


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
    # Six (tag, holder) copies on two nodes: ``p`` and ``lod:p`` on both
    # holders, MISC and its sibling on the primary.  Each holder still
    # pays one span, then its one line, for the window.
    assert sum(len(tags) for tags in held.values()) == 6
    assert held[sharded.holders(LOGICAL, "p")[0]] == WINDOW_TAGS
    for node in nodes:
        # A one-disk node's metadata resolves to its only disk.
        assert node.ada.plfs.metadata_backend == "hdd"
        fs = node.ada.plfs.backends["hdd"]
        holds = 2 if held[node.name] else 0  # one span, one line
        assert writes[node.name] == holds, node.name
        assert _index_appends(fs) == 0, node.name
        if holds:
            assert len(_log_records(fs)) == 2 * len(held[node.name]), node.name


def _served(device):
    """Log each request ``device`` serves as ``(op, nbytes, end time)``,
    in the order the requests finish."""
    log = []
    for op in ("read", "write"):
        serve = getattr(device, op)

        def spy(nbytes, *args, _serve=serve, _op=op, **kwargs):
            yield from _serve(nbytes, *args, **kwargs)
            log.append((_op, nbytes, device.sim.now))

        setattr(device, op, spy)
    return log


def test_a_read_queued_during_a_span_goes_before_its_index_line(stream):
    """A reader hammering a one-disk shard node while a window lands: the
    window's span and its index line are two device requests, so the read
    queued during the span is served between them (it waits one seek, not
    two).  The window stays invisible until its line's request completes:
    every fetch that finishes before then indexes the first window only
    and returns its bytes."""
    pdb_text, first, second = stream
    sim = Simulator()
    ada = _one_disk_node(sim, max_retries=4)
    assert ada.plfs.metadata_backend == "hdd"  # the index shares the disk
    _ingest(ada, first, pdb_text)
    hdd = ada.plfs.backends["hdd"]
    before = sim.run_process(ada.fetch(LOGICAL, "m")).data
    served, fetched, landed = _served(hdd.device), [], []

    def reader():
        while not landed:
            obj = yield from ada.fetch(LOGICAL, "m")
            chunks = [r.chunk for r in ada.plfs.subset_records(LOGICAL, "m")]
            fetched.append((sim.now, obj.data, chunks))

    def writer():
        yield from ada.ingest_stream(LOGICAL, second, config=CONFIG)
        landed.append(True)

    log = hdd.nbytes(INDEX)
    sim.process(reader())
    sim.run_process(writer())
    ops = [(op, nbytes) for op, nbytes, _ in served]
    span_at = ops.index(("write", _window_bytes(ada, 1)))
    line_at = ops.index(("write", hdd.nbytes(INDEX) - log))
    # span -> read(s) -> line, and nothing else written.
    assert line_at > span_at + 1
    assert {op for op, _ in ops[span_at + 1:line_at]} == {"read"}
    assert [op for op, _ in ops].count("write") == 2
    span_end, line_end = served[span_at][2], served[line_at][2]
    early = [f for f in fetched if f[0] < line_end]
    assert any(end > span_end for end, *_ in early)
    assert all(data == before and chunks == [0] for _, data, chunks in early)
    assert sim.run_process(ada.fetch(LOGICAL, "m")).data != before
    assert [r.chunk for r in ada.plfs.subset_records(LOGICAL, "m")] == [0, 1]


# -- failure semantics ---------------------------------------------------------


def _three_disk_ada(sim, ssd_capacity=100 * GB, max_retries=4):
    """Two data tiers plus a metadata-only disk: ``catalog`` is the active
    tier, so it holds the index log and the label file, and an override
    sends the active subset to ``ssd``.  A fault plan on ``catalog`` hits
    the index appends and the label file, never a data span."""
    return ADA(
        sim,
        backends={
            "catalog": _fs(sim, "catalog"),
            "hdd": _fs(sim, "hdd"),
            "ssd": _fs(sim, "ssd", capacity=ssd_capacity),
        },
        placement=PlacementPolicy(
            active_tags=frozenset({"p"}), active_backend="catalog",
            inactive_backend="hdd", overrides={"p": "ssd"},
        ),
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
    # The HDD group landed; the SSD group's exhausted retry deleted it again.
    assert _writes(ada.metrics, ["hdd"])["hdd"] == before + 1
    assert ada.plfs.container_index(LOGICAL) == index
    assert _objects(ada) == stored
    _assert_consistent(ada)


def _used(ada):
    return {name: fs.device.used_bytes for name, fs in ada.plfs.backends.items()}


def test_a_failed_group_waits_for_the_group_still_in_flight(stream):
    """The SSD group gives up while the HDD group is still writing: the
    window fails only once the HDD span has landed, and deletes it."""
    pdb_text, first, second = stream
    sim = Simulator()
    ada = _three_disk_ada(sim, max_retries=1)
    _ingest(ada, first, pdb_text)
    index, stored, used = ada.plfs.container_index(LOGICAL), _objects(ada), _used(ada)
    ssd, hdd = ada.plfs.backends["ssd"], ada.plfs.backends["hdd"]
    FaultPlan(seed=0, sites={"fs:ssd": FaultSpec(transient_rate=1.0)}).attach(ssd)
    failed_at = []

    def window():
        try:
            yield from ada.ingest_stream(LOGICAL, second, config=CONFIG)
        except FaultError:
            failed_at.append(sim.now)

    spans = len(hdd.device.busy.intervals)
    sim.process(window())
    sim.run(until=sim.now + 4e-3)
    # The SSD group is exhausted; the HDD span is still paying its seek.
    assert ada.metrics.value("retry_exhausted_total") == 1
    assert len(hdd.device.busy.intervals) == spans and not failed_at
    sim.run()
    landed = hdd.device.busy.intervals[spans][1]
    assert failed_at and failed_at[0] >= landed
    # Nothing of the window is left on any backend, and no capacity.
    assert ada.plfs.container_index(LOGICAL) == index
    assert _objects(ada) == stored and _used(ada) == used
    _assert_consistent(ada)


def test_an_interrupted_dispatch_leaves_no_chunk_and_no_reservation(stream):
    """The dispatching process is interrupted (abandoned) while both
    groups are in flight: the groups stop, nothing lands, and every
    capacity reservation and device slot is given back."""
    pdb_text, first, _second = stream
    sim = Simulator()
    ada = _two_tier_ada(sim)
    _ingest(ada, first, pdb_text)
    index, stored, used = ada.plfs.container_index(LOGICAL), _objects(ada), _used(ada)
    subsets = {tag: bytes(4096) for tag in WINDOW_TAGS}
    dispatch = sim.process(ada.determinator.store(LOGICAL, subsets))
    interrupted = []

    def client():
        try:
            yield dispatch
        except Interrupt:
            interrupted.append(sim.now)

    sim.process(client())
    sim.run(until=sim.now + 4e-3)
    # Both spans are in their 8 ms seek, their capacity reserved.
    devices = [fs.device for fs in ada.plfs.backends.values()]
    assert all(d.resource.in_use for d in devices)
    assert all(_used(ada)[name] > used[name] for name in used)
    dispatch.interrupt("client went away")
    sim.run()
    assert interrupted
    assert not any(d.resource.in_use for d in devices)
    assert ada.plfs.container_index(LOGICAL) == index
    assert _objects(ada) == stored and _used(ada) == used
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


# -- a full active tier: metadata spills like data ------------------------------


def _log_records(fs):
    return [json.loads(line) for line in fs.data(INDEX).splitlines()]


def _full_ssd_ada(stream):
    """Two windows on an SSD sized so the second window's span takes its
    last free byte: the span lands on the SSD, its index append does not
    fit.  The sizes come from the same two windows on a roomy twin."""
    pdb_text, first, second = stream
    twin = _two_tier_ada(Simulator())
    ssd = twin.plfs.backends["ssd"]
    _ingest(twin, first, pdb_text)
    used, log = ssd.device.used_bytes, ssd.nbytes(INDEX)
    _ingest(twin, second)
    span = ssd.device.used_bytes - used - (ssd.nbytes(INDEX) - log)
    ada = _two_tier_ada(Simulator(), ssd_capacity=used + span)
    _ingest(ada, first, pdb_text)
    _ingest(ada, second)
    return ada


def test_index_append_on_a_full_ssd_spills_to_the_hdd(stream):
    ada = _full_ssd_ada(stream)
    ssd, hdd = ada.plfs.backends["ssd"], ada.plfs.backends["hdd"]
    assert ssd.device.free_bytes == 0
    # The window committed: its data span stayed on the SSD (no data
    # spill), and only its index lines went to the HDD.
    assert ada.determinator.dispatcher.spills == []
    assert {r.backend for r in ada.plfs.subset_records(LOGICAL, "p")} == {"ssd"}
    assert [r["chunk"] for r in _log_records(ssd)] == [0] * len(WINDOW_TAGS)
    assert [r["chunk"] for r in _log_records(hdd)] == [1] * len(WINDOW_TAGS)
    # A cold client replays both logs, each record once.
    _assert_consistent(ada)
    cold = PLFS(ada.sim, ada.plfs.backends).container_index(LOGICAL)
    assert len(cold) == len(set(cold)) == 2 * len(WINDOW_TAGS)


def test_label_on_a_full_ssd_lands_on_the_hdd(stream):
    pdb_text, first, _second = stream
    ada = _full_ssd_ada(stream)
    ssd, hdd = ada.plfs.backends["ssd"], ada.plfs.backends["hdd"]
    other = "other.xtc"

    def _ingest_other():
        ada.sim.run_process(
            ada.ingest_stream(other, first, pdb_text=pdb_text, config=CONFIG)
        )

    _ingest_other()
    label = ADA._label_path(other)
    assert hdd.exists(label) and not ssd.exists(label)
    reader = ADA(ada.sim, backends=ada.plfs.backends)  # nothing in memory
    assert reader.label_map(other) == ada.label_map(other)
    assert ada.plfs.fsck()["ok"]
    # With room again, a fresh ingest puts the label back on the SSD and
    # drops the spilled copy.
    ada.remove(LOGICAL)
    _ingest_other()
    assert ssd.exists(label) and not hdd.exists(label)
    assert ADA(ada.sim, backends=ada.plfs.backends).label_map(other) == (
        ada.label_map(other)
    )
    assert ada.plfs.fsck()["ok"]


# -- a one-group window commits in its own span write ---------------------------


def _one_disk_node(sim, max_retries):
    return ShardNode.build(
        sim, "node0", backends={"hdd": _fs(sim, "hdd")}, lod_precision=12.5,
        retry_policy=RetryPolicy(max_retries=max_retries, seed=1),
    ).ada


def test_a_p_only_window_on_a_full_ssd_spills_its_span_and_commits_apart():
    """A window of the active tag alone is one group on the metadata tier.
    The SSD holds the span but not the span plus its line, so the whole
    span spills to the HDD, and the line is appended on the SSD after."""
    sim = Simulator()
    payload = bytes(4096)
    ada = _two_tier_ada(sim, ssd_capacity=len(payload))
    ssd, hdd = ada.plfs.backends["ssd"], ada.plfs.backends["hdd"]
    records = sim.run_process(ada.determinator.store(LOGICAL, {"p": payload}))
    assert ada.determinator.dispatcher.spills == [(LOGICAL, "p", "ssd", "hdd")]
    assert [r.backend for r in records] == ["hdd"]
    assert [label for *_, label in hdd.device.busy.intervals] == ["plfs"]
    assert [label for *_, label in ssd.device.busy.intervals] == ["plfs-index"]
    assert [r["backend"] for r in _log_records(ssd)] == ["hdd"]
    assert not hdd.exists(INDEX)
    _assert_consistent(ada)


def test_an_exhausted_one_group_window_leaves_nothing_and_burns_the_names(stream):
    pdb_text, first, second = stream
    sim = Simulator()
    ada = _one_disk_node(sim, max_retries=2)
    _ingest(ada, first, pdb_text)
    index, stored, used = ada.plfs.container_index(LOGICAL), _objects(ada), _used(ada)
    hdd = ada.plfs.backends["hdd"]
    FaultPlan(seed=0, sites={"fs:hdd": FaultSpec(transient_rate=1.0)}).attach(hdd)
    with pytest.raises(FaultError):
        _ingest(ada, second)
    # No chunk, no log byte, no capacity reservation.
    assert ada.plfs.container_index(LOGICAL) == index
    assert _objects(ada) == stored and _used(ada) == used
    _assert_consistent(ada)
    # Each of the three attempts burnt its chunk names; the clean retry
    # is one span request plus one line request and lands on 4.
    hdd.faults = None
    before = _schedule_writes(ada)["hdd"]
    _ingest(ada, second)
    assert _schedule_writes(ada)["hdd"] - before == 2
    for tag in WINDOW_TAGS:
        assert [r.chunk for r in ada.plfs.subset_records(LOGICAL, tag)] == [0, 4]
    _assert_consistent(ada)


def test_a_one_group_window_retries_its_span_and_line_under_one_key(stream):
    pdb_text, first, second = stream
    sim = Simulator()
    ada = _one_disk_node(sim, max_retries=8)
    _ingest(ada, first, pdb_text)
    hdd = ada.plfs.backends["hdd"]
    log_before, writes_before = hdd.nbytes(INDEX), _schedule_writes(ada)["hdd"]
    retrier, keys = ada.determinator.retrier, []
    call = retrier.call
    retrier.call = lambda op, key: keys.append(key) or call(op, key)
    plan = FaultPlan(seed=1, sites={"fs:hdd": FaultSpec(transient_rate=0.6)})
    plan.attach(hdd)
    _ingest(ada, second)
    assert plan.injected[("fs:hdd", "transient")] == 3
    assert keys == [f"write:{LOGICAL}#{WINDOW_TAGS[0]}-{WINDOW_TAGS[-1]}:4"]
    # Rejected attempts fail at the gate: one span request and one line
    # request reached the disk, and the log grew by exactly the window's
    # lines.
    assert _schedule_writes(ada)["hdd"] - writes_before == 2
    log = hdd.data(INDEX)
    lines = log.splitlines(keepends=True)[-len(WINDOW_TAGS):]
    assert len(log) - log_before == sum(map(len, lines))
    assert [json.loads(line)["chunk"] for line in lines] == [4] * len(WINDOW_TAGS)
    _assert_consistent(ada)


class _RejectWrite(FaultPlan):
    """A device fault plan that rejects exactly its ``nth`` write."""

    def __init__(self, nth):
        super().__init__()
        self.left = nth

    def decide(self, site, op):
        if op == "write":
            self.left -= 1
            if self.left == 0:
                self.injected[(site, TRANSIENT)] += 1
                return FaultDecision(error=TRANSIENT)
        return super().decide(site, op)


def _snapshot_failures(ada):
    """Snapshot the node each time its disk's ``write_span`` fails."""
    hdd = ada.plfs.backends["hdd"]
    write_span, snapshots = hdd.write_span, []

    def spy(*args, **kwargs):
        try:
            return (yield from write_span(*args, **kwargs))
        except BaseException:
            snapshots.append((
                ada.plfs.container_index(LOGICAL), _objects(ada), _used(ada),
            ))
            raise

    hdd.write_span = spy
    return snapshots


@pytest.mark.parametrize("cut", ["fault", "line-waits-behind-a-read"])
def test_a_window_cut_between_its_span_and_its_line_leaves_nothing(stream, cut):
    """A one-disk node's window dies after its span's request was served
    and before its line's: a device fault on the line's request (retried
    in place), or the writer interrupted while its line waits behind a
    read (stored again).  Nothing of the cut attempt is left -- no chunk,
    no log byte, no capacity, no queued request -- and the retry, under
    the window's one ``write:`` key, lands the window once."""
    pdb_text, first, _second = stream
    sim = Simulator()
    ada = _one_disk_node(sim, max_retries=1)
    _ingest(ada, first, pdb_text)
    hdd = ada.plfs.backends["hdd"]
    clean = (ada.plfs.container_index(LOGICAL), _objects(ada), _used(ada))
    log = hdd.nbytes(INDEX)
    retrier, keys = ada.determinator.retrier, []
    call = retrier.call
    retrier.call = lambda op, key: keys.append(key) or call(op, key)
    snapshots, served = _snapshot_failures(ada), _served(hdd.device)
    subsets = {tag: bytes(4096) for tag in WINDOW_TAGS}
    span = sum(map(len, subsets.values()))
    if cut == "fault":
        plan = _RejectWrite(2).attach(hdd.device)  # the window's line request
        sim.run_process(ada.determinator.store(LOGICAL, subsets))
        assert plan.injected[("dev:hdd", "transient")] == 1
    else:
        path = ada.plfs.subset_records(LOGICAL, "m")[0].path
        stop, interrupted = [], []

        def reader():
            while not stop:
                yield from hdd.read(path)

        def client(dispatch):
            try:
                yield dispatch
            except Interrupt:
                interrupted.append(True)

        sim.process(reader())
        dispatch = sim.process(ada.determinator.store(LOGICAL, subsets))
        sim.process(client(dispatch))
        while ("write", span) not in [(op, n) for op, n, _ in served]:
            sim.run(until=sim.now + 1e-4)
        # The span is served; a read holds the disk, the line waits.
        assert hdd.device.resource.in_use and hdd.device.queued_writes == 1
        dispatch.interrupt("writer went away")
        stop.append(True)
        sim.run()
        assert interrupted
        assert hdd.device_backlog() == (0, 0)
        assert (ada.plfs.container_index(LOGICAL), _objects(ada), _used(ada)) == clean
        _assert_consistent(ada)
        sim.run_process(ada.determinator.store(LOGICAL, subsets))
    assert snapshots == [clean]
    assert hdd.device_backlog() == (0, 0)
    key = f"write:{LOGICAL}#{WINDOW_TAGS[0]}-{WINDOW_TAGS[-1]}:4"
    assert keys == [key] * (1 if cut == "fault" else 2)
    # The cut attempt's span, then the retry's span and line; the cut
    # attempt's number stays burnt.
    line = hdd.nbytes(INDEX) - log
    assert [(op, n) for op, n, _ in served if op == "write"] == [
        ("write", span), ("write", span), ("write", line),
    ]
    for tag in WINDOW_TAGS:
        assert [r.chunk for r in ada.plfs.subset_records(LOGICAL, tag)] == [0, 2]
    lines = hdd.data(INDEX).splitlines(keepends=True)[-len(WINDOW_TAGS):]
    assert line == sum(map(len, lines))
    assert len(_objects(ada)) == len(clean[1]) + len(WINDOW_TAGS)
    _assert_consistent(ada)

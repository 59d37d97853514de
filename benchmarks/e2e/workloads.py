"""The five workloads: set-up, timed slices, and an independent verify pass.

Every workload follows one shape so the runner can treat them alike:

* ``setup()`` (untimed here; the runner times it as ``setup_s``) generates
  the inputs from the seed with ``repro.workloads.build_workload``, builds
  the deployment and warms it where the workload says so;
* ``run_slice(i)`` is the body of measured slice ``i`` -- identical request
  shape for every ``i`` -- which the runner brackets with ``perf_counter``.
  Inside it nothing is digested or decoded on the driver's behalf: only a
  payload's ``nbytes``/``tier`` are read;
* ``harvest(i)`` runs right after, outside the timer, and moves per-op
  records (simulated latency, bytes, refusals) into ``self.log``;
* ``verify()`` runs after the whole phase and checks bytes against an
  oracle computed from the *generated* trajectory (never from what the
  system stored); it returns ``(checks, failures)``.

All loops are closed: a client sends its next request only when the
previous one has completed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import (
    STATS_ATOL,
    STATS_RTOL,
    InSituAnalysis,
    block_average,
    contact_count,
    end_to_end_distance,
    gyration_radius,
    mean_square_displacement,
    native_contact_fraction,
    rmsd_trajectory,
)
from repro.cluster.node import ComputeNode
from repro.cluster.shard import ShardNode, ShardedADA
from repro.core import ADA, IngestPipelineConfig
from repro.datagen import generate_trajectory
from repro.errors import AdmissionRejected, FaultError
from repro.formats.topology import AtomClass
from repro.formats.xtc import (
    DEFAULT_PRECISION,
    FrameIndex,
    decode_raw,
    decode_xtc,
    encode_raw,
)
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.harness.calibration import E5_2603V4
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import (
    DatasetRef,
    ServeFront,
    TenantBlockCache,
    TrafficConfig,
    TrafficGenerator,
)
from repro.sim import AllOf, Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.storage.power import NodePower
from repro.storage.ssd import NVME_SSD_256GB
from repro.vmd import Animator, TrajectoryLoader, VMDSession
from repro.vmd.streaming import StreamingTrajectory
from repro.workloads import build_workload

__all__ = ["OpLog", "Workload", "WORKLOAD_CLASSES"]

PLAYBACK_TAG = "p"
LOD_PRECISION = 12.5
ZIPF_S = 1.1

#: Two XTC quantisations (the arriving stream, then the stored subset)
#: each move a coordinate by at most half a grid step.
XTC_TOLERANCE = 1.0 / DEFAULT_PRECISION + 1e-4


@dataclass
class OpLog:
    """Per-op records of the measured phase (filled outside the timers)."""

    attempted: int = 0
    failed: int = 0  # raised, refused, or served on the wrong tier
    payload_bytes: int = 0
    sim_ms: List[float] = field(default_factory=list)  # the headline ops
    wait_ms: List[float] = field(default_factory=list)  # scheduler queue
    write_ms: List[float] = field(default_factory=list)  # appends (mixed)
    sim_start_s: Optional[float] = None
    sim_end_s: float = 0.0
    served_by_tenant: Dict[str, int] = field(default_factory=dict)


class Workload:
    """Base class: sizes, the seed, and the optional host tracer."""

    name = ""
    ops_per_slice = 0

    def __init__(self, seed: int, sizes: Dict[str, int], tracer=None,
                 sim_spans: bool = False):
        self.seed = int(seed)
        self.sizes = dict(sizes)
        self.nslices = int(sizes["slices"])
        self.tracer = tracer
        #: Attach a ``repro.obs.Tracer`` that keeps every simulated-clock
        #: span (the traced run and its reference pass both do, so the two
        #: differ by the host wrappers alone).
        self.sim_spans = sim_spans or tracer is not None
        # Naming the op costs a call per request; skip it when untraced so
        # the driver stays out of the headline numbers.
        self.set_op: Callable[[int], None] = (
            tracer.set_op if tracer is not None else _no_op
        )
        self.log = OpLog()
        self.sim: Optional[Simulator] = None
        self.metrics: Optional[MetricsRegistry] = None
        self.sim_tracer: Optional[Tracer] = None

    # -- shared helpers -----------------------------------------------------

    def _new_sim(self) -> Simulator:
        sim = Simulator()
        if self.sim_spans:
            self.sim_tracer = Tracer(sim, max_traces=10**9)
        self.sim = sim
        return sim

    def _timed_op(self, generator):
        """Wrap a DES process so its completion time is read *inside* the
        simulation (``run_process`` also drains background prefetch, which
        would otherwise be billed to the op)."""
        sim = self.sim

        def timed():
            started = sim.now
            result = yield from generator
            return result, started, sim.now

        return timed()

    def _record(self, started: float, finished: float, target: List[float]):
        log = self.log
        if log.sim_start_s is None:
            log.sim_start_s = started
        log.sim_end_s = max(log.sim_end_s, finished)
        target.append((finished - started) * 1e3)

    # -- the interface the runner drives ---------------------------------------

    def setup(self) -> None:
        raise NotImplementedError

    def run_slice(self, index: int) -> None:
        raise NotImplementedError

    def harvest(self, index: int) -> None:
        """Move what the slice produced into ``self.log`` (untimed)."""

    def verify(self) -> Tuple[int, int]:
        raise NotImplementedError

    def stats(self) -> Dict[str, float]:
        """Workload-specific exact counts the registry does not carry."""
        return {}

    def close(self) -> None:
        """Release pools/threads the deployment started."""


def _no_op(_op: int) -> None:
    return None


# --------------------------------------------------------------------------
# deployment pieces
# --------------------------------------------------------------------------


def _two_tier(sim: Simulator) -> Dict[str, LocalFS]:
    """The paper's placement: protein subset on flash, MISC on the disk."""
    return {
        "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
        "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
    }


def _storage_cpu(sim: Simulator) -> ComputeNode:
    """One storage-side CPU, so pre-processing and analysis are charged."""
    return ComputeNode(
        sim, "storage0", E5_2603V4, memory_capacity=64 << 30,
        power=NodePower(idle_w=330.0, cpu_active_w=60.0, io_active_w=10.0),
    )


def _protein_indices(workload) -> np.ndarray:
    """The oracle's tag atoms: straight from the generated topology."""
    return workload.system.topology.class_indices(AtomClass.PROTEIN)


def _split_stream(blob: bytes, seg_frames: int) -> List[bytes]:
    """Cut one XTC stream into standalone segments at keyframes (no
    re-encode: a segment is the byte range of its frames)."""
    infos = FrameIndex.build(blob).infos
    cuts = list(range(0, len(infos), seg_frames))
    offsets = [infos[i].offset for i in cuts] + [len(blob)]
    for i in cuts:
        if not infos[i].is_keyframe:
            raise ValueError(f"segment boundary {i} is not a keyframe")
    return [blob[offsets[k]:offsets[k + 1]] for k in range(len(cuts))]


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        return float("inf")
    return float(np.abs(a.astype(np.float64) - b.astype(np.float64)).max())


# --------------------------------------------------------------------------
# ingest_stream / ingest_insitu
# --------------------------------------------------------------------------


class IngestStream(Workload):
    """One client streams a trajectory into a two-tier ADA, segment by
    segment; op = one ``ADA.ingest_stream`` call."""

    name = "ingest_stream"
    logical = "stream.xtc"
    with_analysis = False

    def __init__(self, seed, sizes, tracer=None, sim_spans=False):
        super().__init__(seed, sizes, tracer, sim_spans)
        self.ops_per_slice = int(sizes["ops_per_slice"])

    def setup(self) -> None:
        s = self.sizes
        nsegments = self.nslices * self.ops_per_slice
        self.workload = build_workload(
            natoms=s["natoms"],
            nframes=nsegments * s["seg_frames"],
            seed=self.seed,
            keyframe_interval=s["keyframe_interval"],
        )
        self.segments = _split_stream(self.workload.xtc_blob, s["seg_frames"])
        sim = self._new_sim()
        self.ada = ADA(
            sim,
            backends=_two_tier(sim),
            storage_cpu=_storage_cpu(sim),
            subset_format="xtc",
            lod_precision=LOD_PRECISION,
            ingest_config=IngestPipelineConfig(
                window_frames=s["window_frames"], depth=s["depth"]
            ),
        )
        self.metrics = self.ada.metrics
        self.hook = InSituAnalysis() if self.with_analysis else None
        self._results: List[tuple] = []

    def run_slice(self, index: int) -> None:
        ada, sim, hook = self.ada, self.sim, self.hook
        first = index * self.ops_per_slice
        for op in range(first, first + self.ops_per_slice):
            self.set_op(op)
            try:
                outcome = sim.run_process(
                    self._timed_op(
                        ada.ingest_stream(
                            self.logical,
                            self.segments[op],
                            pdb_text=self.workload.pdb_text if op == 0 else None,
                            analysis=hook,
                        )
                    )
                )
            except FaultError:
                outcome = None
            self._results.append((op, outcome))

    def harvest(self, index: int) -> None:
        log = self.log
        for op, outcome in self._results:
            log.attempted += 1
            if outcome is None:
                log.failed += 1
                continue
            _receipt, started, finished = outcome
            log.payload_bytes += len(self.segments[op])
            self._record(started, finished, log.sim_ms)
        self._results.clear()

    def verify(self) -> Tuple[int, int]:
        """fsck, then read everything back against the generated frames."""
        checks = failures = 0
        ada, sim = self.ada, self.sim
        truth = self.workload.trajectory.coords
        checks += 1
        if not ada.plfs.fsck()["ok"]:
            failures += 1
        merged = sim.run_process(ada.fetch_merged(self.logical))
        checks += 1
        if _max_abs_diff(merged.coords, truth) > XTC_TOLERANCE:
            failures += 1
        # The LOD sibling of the tag atoms, within the advertised bound
        # (plus the arriving stream's own quantisation).
        p_idx = _protein_indices(self.workload)
        nchunks = len(ada.plfs.subset_records(self.logical, PLAYBACK_TAG))
        frames_per_chunk = truth.shape[0] // nchunks
        bound = ada.lod_bound(self.logical) + XTC_TOLERANCE
        for chunk in sorted({0, nchunks // 2, nchunks - 1}):
            obj = sim.run_process(
                ada.fetch_chunks(
                    self.logical, PLAYBACK_TAG, [chunk], precision="lod"
                )
            )[0]
            lo = chunk * frames_per_chunk
            want = truth[lo:lo + frames_per_chunk][:, p_idx]
            checks += 1
            if obj.tier != "lod" or _max_abs_diff(
                decode_xtc(obj.data).coords, want
            ) > bound:
                failures += 1
        if self.hook is not None:
            extra_checks, extra_failures = self._verify_analysis(merged)
            checks += extra_checks
            failures += extra_failures
        return checks, failures

    def _verify_analysis(self, merged) -> Tuple[int, int]:
        """Online results == the batch operators on the read-back frames."""
        online = self.hook.results()
        batch = {
            "rmsd": rmsd_trajectory(merged),
            "contacts": contact_count(merged),
            "native_fraction": native_contact_fraction(merged),
            "gyration_radius": gyration_radius(merged),
            "end_to_end": end_to_end_distance(merged),
            "msd": mean_square_displacement(merged),
        }
        checks = failures = 0
        checks += 1
        if online["frames"] != merged.nframes:
            failures += 1
        for name, series in batch.items():
            checks += 1
            if name not in online or not np.array_equal(online[name], series):
                failures += 1
        for name, stats in online["stats"].items():
            checks += 1
            if not _blocks_match(stats["blocks"], block_average(batch[name])):
                failures += 1
        return checks, failures

    def stats(self) -> Dict[str, float]:
        ingest = self.ada.stats()["ingest"]
        return {
            "ingest.overlap_ratio": float(ingest.get("overlap_ratio", 0.0)),
            "ingest.buffered_bytes_peak": float(
                ingest.get("buffered_bytes_peak", 0.0)
            ),
        }

    def close(self) -> None:
        self.ada.preprocessor.close()


class IngestInsitu(IngestStream):
    """The same write path with one default ``InSituAnalysis`` hook that
    spans every segment (appended segments rebase by ``frames_seen``)."""

    name = "ingest_insitu"
    with_analysis = True


def _blocks_match(online_rows, batch_rows) -> bool:
    if len(online_rows) != len(batch_rows):
        return False
    for online, batch in zip(online_rows, batch_rows):
        if (online.block_size, online.nblocks) != (
            batch.block_size, batch.nblocks
        ):
            return False
        for attr in ("mean", "stderr"):
            if not np.isclose(
                getattr(online, attr), getattr(batch, attr),
                rtol=STATS_RTOL, atol=STATS_ATOL,
            ):
                return False
    return True


# --------------------------------------------------------------------------
# serve_warm / serve_sharded_mixed
# --------------------------------------------------------------------------


@dataclass
class _Dataset:
    logical: str
    workload: object  # GpcrWorkload
    p_idx: np.ndarray


class _ServeBase(Workload):
    """Catalogue, tenants and the closed-loop driver both serve workloads
    share.  The request loop is the benchmark's own: it walks
    ``TrafficGenerator.plan()`` but, unlike ``tenant_loop``, never hashes
    a payload inside the timed region."""

    readers: Sequence[str] = ()

    def _catalogue(self) -> List[_Dataset]:
        s = self.sizes
        nframes = s["nchunks"] * s["frames_per_chunk"]
        out = []
        for index in range(s["ndatasets"]):
            workload = build_workload(
                natoms=s["natoms"], nframes=nframes, seed=self.seed + index
            )
            out.append(
                _Dataset(f"traj{index}.xtc", workload, _protein_indices(workload))
            )
        return out

    def _chunk_blobs(self, dataset: _Dataset) -> List[bytes]:
        fpc = self.sizes["frames_per_chunk"]
        trajectory = dataset.workload.trajectory
        return [
            encode_raw(trajectory.slice_frames(i * fpc, (i + 1) * fpc))
            for i in range(self.sizes["nchunks"])
        ]

    def _ingest_catalogue(self, ada) -> None:
        sim = self.sim
        for dataset in self.datasets:
            blobs = self._chunk_blobs(dataset)
            sim.run_process(
                ada.ingest(dataset.logical, dataset.workload.pdb_text, blobs[0])
            )
            for blob in blobs[1:]:
                sim.run_process(ada.ingest_append(dataset.logical, blob))

    def _plans(self, per_tenant: int) -> Dict[str, list]:
        catalog = [
            DatasetRef(d.logical, PLAYBACK_TAG, self.sizes["nchunks"])
            for d in self.datasets
        ]
        generator = TrafficGenerator(
            catalog,
            TrafficConfig(
                mode="closed",
                requests_per_tenant=per_tenant,
                window_chunks=self.sizes["window_chunks"],
                zipf_s=ZIPF_S,
                seed=self.seed,
            ),
        )
        return {name: generator.plan(name) for name in self.readers}

    def _reader_loop(self, name: str, requests: list, base_op: int, sink: list):
        """One tenant's closed loop over its share of the slice."""
        session = self.front.session(name)
        set_op = self.set_op
        for offset, (ref, window) in enumerate(requests):
            set_op(base_op + offset)
            try:
                objs = yield from session.fetch_chunks(
                    ref.logical, ref.tag, window
                )
            except AdmissionRejected:
                sink.append(("rejected", 0, None))
                continue
            except FaultError:
                sink.append(("failed", 0, None))
                continue
            nbytes = 0
            tier = None
            for obj in objs:
                nbytes += obj.nbytes
                tier = obj.tier
            sink.append(("ok", nbytes, tier))

    def _drain_completed(self) -> Dict[str, list]:
        """Take (and clear) the scheduler's per-tenant completion lists."""
        completed = self.front.scheduler.completed
        taken = {name: list(done) for name, done in completed.items()}
        for done in completed.values():
            done.clear()
        return taken

    def _check_read(self, dataset: _Dataset, window, objs, lod_bound) -> bool:
        """Full tier: bit-equal to the generated tag atoms.  LOD tier:
        within the advertised bound."""
        fpc = self.sizes["frames_per_chunk"]
        truth = dataset.workload.trajectory.coords
        for chunk, obj in zip(window, objs):
            want = truth[chunk * fpc:(chunk + 1) * fpc][:, dataset.p_idx]
            if obj.tier == "lod":
                got = decode_xtc(obj.data).coords
                if _max_abs_diff(got, want) > lod_bound:
                    return False
            elif not np.array_equal(decode_raw(obj.data).coords, want):
                return False
        return True


class ServeWarm(_ServeBase):
    """``ServeFront`` over one ADA whose tenant cache holds the whole
    working set; one untimed pass fills it."""

    name = "serve_warm"

    def __init__(self, seed, sizes, tracer=None, sim_spans=False):
        super().__init__(seed, sizes, tracer, sim_spans)
        self.readers = [f"t{i}" for i in range(sizes["tenants"])]
        self.per_tenant_slice = int(sizes["requests_per_tenant_slice"])
        self.ops_per_slice = self.per_tenant_slice * len(self.readers)

    def setup(self) -> None:
        s = self.sizes
        self.datasets = self._catalogue()
        p_bytes = sum(
            s["nchunks"] * s["frames_per_chunk"] * len(d.p_idx) * 12
            for d in self.datasets
        )
        sim = self._new_sim()
        l1 = 2.0 * p_bytes  # working set fits twice over
        cache = TenantBlockCache(sim, l1_capacity_bytes=l1)
        self.ada = ADA(
            sim, backends=_two_tier(sim), block_cache=cache, prefetch=True
        )
        self.metrics = self.ada.metrics
        self._ingest_catalogue(self.ada)
        self.front = ServeFront(self.ada, concurrency=8)
        quota = int(l1 / (2 * len(self.readers)))
        for name in self.readers:
            self.front.register(
                name, cache_quota_bytes=quota, prefetch_budget_bytes=quota
            )
        self.plans = self._plans(self.per_tenant_slice * self.nslices)
        # Warm-up: every window of every dataset once, so the measured
        # phase never touches a device.
        window = s["window_chunks"]
        for dataset in self.datasets:
            for start in range(0, s["nchunks"], window):
                sim.run_process(
                    self.ada.fetch_chunks(
                        dataset.logical, PLAYBACK_TAG,
                        list(range(start, min(start + window, s["nchunks"]))),
                    )
                )
        self._drain_completed()
        self._sinks: Dict[str, list] = {name: [] for name in self.readers}

    def _slice_requests(self, index: int) -> Dict[str, list]:
        lo = index * self.per_tenant_slice
        return {
            name: self.plans[name][lo:lo + self.per_tenant_slice]
            for name in self.readers
        }

    def run_slice(self, index: int) -> None:
        sim = self.sim
        requests = self._slice_requests(index)
        base = index * self.ops_per_slice
        procs = [
            sim.process(
                self._reader_loop(
                    name, requests[name],
                    base + k * self.per_tenant_slice, self._sinks[name],
                ),
                name=f"bench:{name}",
            )
            for k, name in enumerate(self.readers)
        ]

        def barrier():
            yield AllOf(sim, procs)

        sim.run_process(barrier())

    def harvest(self, index: int) -> None:
        log = self.log
        for name, sink in self._sinks.items():
            for status, nbytes, tier in sink:
                log.attempted += 1
                if status != "ok" or tier != "full":
                    log.failed += 1
                log.payload_bytes += nbytes
                log.served_by_tenant[name] = (
                    log.served_by_tenant.get(name, 0) + nbytes
                )
            sink.clear()
        for done in self._drain_completed().values():
            for request in done:
                if request.ok:
                    self._record(
                        request.submitted_s, request.finished_s, log.sim_ms
                    )
                    log.wait_ms.append(request.wait_s * 1e3)

    def verify(self) -> Tuple[int, int]:
        """Replay the first and last slices' requests plus every distinct
        window, and compare decoded bytes with the generated frames."""
        by_logical = {d.logical: d for d in self.datasets}
        windows = {}
        for index in sorted({0, self.nslices - 1}):
            for requests in self._slice_requests(index).values():
                for ref, window in requests:
                    windows[(ref.logical, tuple(window))] = None
        s = self.sizes
        for dataset in self.datasets:
            for start in range(0, s["nchunks"], s["window_chunks"]):
                stop = min(start + s["window_chunks"], s["nchunks"])
                windows[(dataset.logical, tuple(range(start, stop)))] = None
        session = self.front.session(self.readers[0])
        checks = failures = 0
        for logical, window in windows:
            objs = self.sim.run_process(
                session.fetch_chunks(logical, PLAYBACK_TAG, list(window))
            )
            checks += 1
            if not self._check_read(by_logical[logical], window, objs, 0.0):
                failures += 1
        self._drain_completed()
        return checks, failures


class ServeShardedMixed(_ServeBase):
    """``ServeFront`` over a 4-node ``ShardedADA`` with deliberately small
    per-node caches; two full-precision readers, one LOD reader, and a
    writer appending fresh segments beside them."""

    name = "serve_sharded_mixed"
    readers = ("full0", "full1", "lod0")
    writer = "writer"

    def __init__(self, seed, sizes, tracer=None, sim_spans=False):
        super().__init__(seed, sizes, tracer, sim_spans)
        self.per_reader_slice = int(sizes["requests_per_reader_slice"])
        self.appends_per_slice = int(sizes["appends_per_slice"])
        self.reads_per_slice = self.per_reader_slice * len(self.readers)
        self.ops_per_slice = self.reads_per_slice + self.appends_per_slice

    def setup(self) -> None:
        s = self.sizes
        total_appends = self.appends_per_slice * self.nslices
        # Which dataset each append grows: Zipf-picked like the reads, from
        # its own seeded stream.
        rng = random.Random(f"{self.seed}/appends")
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(s["ndatasets"])]
        picks = rng.choices(range(s["ndatasets"]), weights, k=total_appends)
        self.datasets = self._catalogue()
        # Fresh frames for the writer: the same molecular systems, moved on
        # by a trajectory of their own (``build_workload`` would also
        # XTC-encode them, which nothing here reads).
        self.fresh = [
            generate_trajectory(
                dataset.workload.system,
                nframes=max(1, picks.count(index)) * s["append_frames"],
                seed=self.seed + 1000 + index,
            )
            for index, dataset in enumerate(self.datasets)
        ]
        cursor = [0] * s["ndatasets"]
        #: ``(dataset index, segment number, raw blob)`` in issue order.
        self.appends: List[Tuple[int, int, bytes]] = []
        for index in picks:
            lo = cursor[index] * s["append_frames"]
            blob = encode_raw(
                self.fresh[index].slice_frames(lo, lo + s["append_frames"])
            )
            self.appends.append((index, cursor[index], blob))
            cursor[index] += 1

        sim = self._new_sim()
        self.metrics = MetricsRegistry()
        nodes = [
            ShardNode.build(
                sim, f"node{i}",
                backends={"hdd": LocalFS(sim, WD_1TB_HDD, name=f"node{i}:hdd")},
                metrics=self.metrics,
                block_cache=BlockCache(sim),
                prefetch=True,
                lod_precision=LOD_PRECISION,
            )
            for i in range(s["nodes"])
        ]
        window_bytes = (
            s["window_chunks"] * s["frames_per_chunk"]
            * max(len(d.p_idx) for d in self.datasets) * 12
        )
        self.sharded = ShardedADA(
            sim, nodes, replicas=s["replicas"], metrics=self.metrics,
            affinity_bytes_slack=2 * window_bytes,
        )
        self._ingest_catalogue(self.sharded)
        # Working set >> cache: each node's L1 is a fixed fraction of what
        # the node holds once the catalogue has landed.
        for node in nodes:
            resident = sum(
                fs.store.nbytes(path)
                for fs in node.ada.plfs.backends.values()
                for path in fs.store.walk()
            )
            node.ada.block_cache.l1_capacity_bytes = max(
                1.0, resident / s["cache_fraction_inv"]
            )
        self.front = ServeFront(self.sharded, concurrency=8)
        self.front.register("full0", precision="full")
        self.front.register("full1", precision="full")
        self.front.register("lod0", precision="lod")
        self.front.register(self.writer)
        self.plans = self._plans(self.per_reader_slice * self.nslices)
        self._sinks: Dict[str, list] = {name: [] for name in self.readers}
        self._write_sink: list = []

    def _slice_requests(self, index: int) -> Dict[str, list]:
        lo = index * self.per_reader_slice
        return {
            name: self.plans[name][lo:lo + self.per_reader_slice]
            for name in self.readers
        }

    def _writer_loop(self, index: int, base_op: int):
        session = self.front.session(self.writer)
        lo = index * self.appends_per_slice
        for offset in range(self.appends_per_slice):
            dataset_index, _segment, blob = self.appends[lo + offset]
            self.set_op(base_op + offset)
            try:
                yield from session.ingest_stream(
                    self.datasets[dataset_index].logical, blob
                )
            except AdmissionRejected:
                self._write_sink.append(("rejected", 0))
                continue
            except FaultError:
                self._write_sink.append(("failed", 0))
                continue
            self._write_sink.append(("ok", len(blob)))

    def run_slice(self, index: int) -> None:
        sim = self.sim
        requests = self._slice_requests(index)
        base = index * self.ops_per_slice
        procs = [
            sim.process(
                self._reader_loop(
                    name, requests[name],
                    base + k * self.per_reader_slice, self._sinks[name],
                ),
                name=f"bench:{name}",
            )
            for k, name in enumerate(self.readers)
        ]
        procs.append(
            sim.process(
                self._writer_loop(index, base + self.reads_per_slice),
                name="bench:writer",
            )
        )

        def barrier():
            yield AllOf(sim, procs)

        sim.run_process(barrier())

    def harvest(self, index: int) -> None:
        log = self.log
        for name, sink in self._sinks.items():
            want_tier = "lod" if name == "lod0" else "full"
            for status, nbytes, tier in sink:
                log.attempted += 1
                if status != "ok" or tier != want_tier:
                    log.failed += 1
                log.payload_bytes += nbytes
                log.served_by_tenant[name] = (
                    log.served_by_tenant.get(name, 0) + nbytes
                )
            sink.clear()
        for status, nbytes in self._write_sink:
            log.attempted += 1
            if status != "ok":
                log.failed += 1
            log.payload_bytes += nbytes
        self._write_sink.clear()
        for name, done in self._drain_completed().items():
            for request in done:
                if not request.ok:
                    continue
                target = log.write_ms if name == self.writer else log.sim_ms
                self._record(request.submitted_s, request.finished_s, target)
                if name != self.writer:
                    log.wait_ms.append(request.wait_s * 1e3)

    def verify(self) -> Tuple[int, int]:
        by_logical = {d.logical: d for d in self.datasets}
        lod_bound = self.sharded.nodes["node0"].ada.lod_bound("any")
        checks = failures = 0
        sim = self.sim
        # 1. the first and last slices' reads, each on its tenant's tier.
        for index in sorted({0, self.nslices - 1}):
            for name, requests in self._slice_requests(index).items():
                session = self.front.session(name)
                for ref, window in requests:
                    objs = sim.run_process(
                        session.fetch_chunks(ref.logical, ref.tag, window)
                    )
                    checks += 1
                    if not self._check_read(
                        by_logical[ref.logical], window, objs, lod_bound
                    ):
                        failures += 1
        # 2. every appended segment reads back bit-equal, in append order.
        s = self.sizes
        for dataset_index, segment, _blob in self.appends:
            dataset = self.datasets[dataset_index]
            obj = sim.run_process(
                self.sharded.fetch_chunks(
                    dataset.logical, PLAYBACK_TAG, [s["nchunks"] + segment]
                )
            )[0]
            lo = segment * s["append_frames"]
            want = self.fresh[dataset_index].coords[
                lo:lo + s["append_frames"]
            ][:, dataset.p_idx]
            checks += 1
            if not np.array_equal(decode_raw(obj.data).coords, want):
                failures += 1
        # 3. every node's store is consistent.
        for node in self.sharded.nodes.values():
            checks += 1
            if not node.ada.plfs.fsck()["ok"]:
                failures += 1
        self._drain_completed()
        return checks, failures

    def stats(self) -> Dict[str, float]:
        loads = [
            float(entry["served_bytes"])
            for entry in self.sharded.node_loads().values()
        ]
        return {"cluster.served_bytes_by_node": loads}

    def close(self) -> None:
        for node in self.sharded.nodes.values():
            node.ada.preprocessor.close()


# --------------------------------------------------------------------------
# playback_scrub
# --------------------------------------------------------------------------


class PlaybackScrub(Workload):
    """One viewer replays the same session script in every slice: open the
    tag subset at both precisions, play forward through the geometry
    builder, scrub randomly on the LOD tier, then seek single frames
    through the streaming window cache."""

    name = "playback_scrub"
    logical = "scrub.xtc"

    def __init__(self, seed, sizes, tracer=None, sim_spans=False):
        super().__init__(seed, sizes, tracer, sim_spans)
        s = sizes
        # 2 opens + 1 stream open + the three request families.
        self.ops_per_slice = (
            3 + s["forward_windows"] + s["lod_seeks"] + s["frame_seeks"]
        )
        self.ada_ops_per_slice = 3 + s["forward_windows"] + s["lod_seeks"]

    def setup(self) -> None:
        s = self.sizes
        self.workload = build_workload(
            natoms=s["natoms"], nframes=s["nframes"], seed=self.seed,
            keyframe_interval=s["chunk_frames"],
        )
        self.p_idx = _protein_indices(self.workload)
        sim = self._new_sim()
        self.ada = ADA(
            sim,
            backends=_two_tier(sim),
            storage_cpu=_storage_cpu(sim),
            block_cache=BlockCache(sim),
            prefetch=True,
            subset_format="xtc",
            lod_precision=LOD_PRECISION,
        )
        self.metrics = self.ada.metrics
        sim.run_process(
            self.ada.ingest_stream(
                self.logical, self.workload.xtc_blob,
                pdb_text=self.workload.pdb_text,
                config=IngestPipelineConfig(window_frames=s["chunk_frames"]),
            )
        )
        self.nchunks = s["nframes"] // s["chunk_frames"]
        # The script's random choices are drawn once: every slice replays
        # exactly the same requests.
        rng = random.Random(f"{self.seed}/scrub")
        nwindows = self.nchunks // s["window_chunks"]
        self.lod_windows = [rng.randrange(nwindows) for _ in range(s["lod_seeks"])]
        self.seek_frames = [
            rng.randrange(s["nframes"]) for _ in range(s["frame_seeks"])
        ]
        self._ops: List[Tuple[float, float]] = []
        self._stream_stats = {"decodes": 0, "hits": 0}
        self._anim_stats = {"hits": 0, "misses": 0}
        self._frames_checked: List[tuple] = []

    def _ada_op(self, generator):
        result, started, finished = self.sim.run_process(
            self._timed_op(generator)
        )
        self._ops.append((started, finished))
        return result

    def run_slice(self, index: int) -> None:
        s = self.sizes
        ada, sim = self.ada, self.sim
        set_op = self.set_op
        op = index * self.ops_per_slice
        session = VMDSession(ada)
        loader = TrajectoryLoader()
        indices = ada.label_map(self.logical).indices(PLAYBACK_TAG)

        # -- open the subset, exact then coarse ---------------------------
        set_op(op)
        session.mol_new(self.workload.pdb_text, name="full")
        started = sim.now
        full = session.mol_addfile_tag(self.logical, PLAYBACK_TAG)
        self._ops.append((started, sim.now))
        set_op(op + 1)
        session.mol_new(self.workload.pdb_text, name="lod")
        started = sim.now
        coarse = session.mol_addfile_tag(
            self.logical, PLAYBACK_TAG, precision="lod"
        )
        self._ops.append((started, sim.now))
        payload = full.source_nbytes + coarse.source_nbytes
        op += 2

        # -- forward playback: fetch, decode, build every frame -----------
        view = session.mol_new(self.workload.pdb_text, name="view")
        animator = None
        wc = s["window_chunks"]
        for w in range(s["forward_windows"]):
            set_op(op)
            op += 1
            objs = self._ada_op(
                ada.fetch_chunks(
                    self.logical, PLAYBACK_TAG, list(range(w * wc, (w + 1) * wc))
                )
            )
            first = view.num_frames
            for obj in objs:
                payload += obj.nbytes
                view.add_frames(
                    loader.load_subset(obj.data).trajectory,
                    atom_indices=indices,
                )
            if animator is None:
                animator = Animator(view, cache_frames=64)
            for iframe in range(first, view.num_frames):
                animator.goto(iframe)

        # -- random scrub on the coarse tier --------------------------------
        for w in self.lod_windows:
            set_op(op)
            op += 1
            objs = self._ada_op(
                ada.fetch_chunks(
                    self.logical, PLAYBACK_TAG,
                    list(range(w * wc, (w + 1) * wc)), precision="lod",
                )
            )
            for obj in objs:
                payload += obj.nbytes
                loader.load_subset(obj.data)

        # -- single-frame seeks through the streaming window cache ----------
        set_op(op)
        op += 1
        exact = self._ada_op(ada.fetch(self.logical, PLAYBACK_TAG))
        lod = sim.run_process(
            ada.fetch(self.logical, PLAYBACK_TAG, precision="lod")
        )
        payload += exact.nbytes + lod.nbytes
        stream = StreamingTrajectory(
            exact.data, window_frames=32, max_windows=4,
            lod_bytes=lod.data, lod_max_error=lod.max_error,
        )
        half = len(self.seek_frames) // 2
        last = None
        for k, iframe in enumerate(self.seek_frames):
            set_op(op)
            op += 1
            stream.precision = "full" if k < half else "lod"
            last = stream.frame(iframe)
        stream.close()

        self._slice_payload = payload
        self._stream_stats["decodes"] += stream.window_decodes
        self._stream_stats["hits"] += stream.window_hits
        self._anim_stats["hits"] += animator.hits
        self._anim_stats["misses"] += animator.misses
        # Kept for the verify pass: what the viewer actually ended up with.
        self._frames_checked = [
            ("full", full.trajectory.coords),
            ("lod", coarse.trajectory.coords),
            ("view", view.trajectory.coords),
            ("seek", self.seek_frames[-1], last.coords),
        ]

    def harvest(self, index: int) -> None:
        log = self.log
        log.attempted += self.ops_per_slice
        log.payload_bytes += self._slice_payload
        for started, finished in self._ops:
            self._record(started, finished, log.sim_ms)
        self._ops.clear()
        # Each slice is a fresh session: drop what the last one cached.
        self.ada.block_cache.invalidate()

    def verify(self) -> Tuple[int, int]:
        s = self.sizes
        truth = self.workload.trajectory.coords[:, self.p_idx]
        lod_bound = self.ada.lod_bound(self.logical) + XTC_TOLERANCE
        forward = s["forward_windows"] * s["window_chunks"] * s["chunk_frames"]
        checks = failures = 0
        for entry in self._frames_checked:
            checks += 1
            if entry[0] == "full":
                bad = _max_abs_diff(entry[1], truth) > XTC_TOLERANCE
            elif entry[0] == "lod":
                bad = _max_abs_diff(entry[1], truth) > lod_bound
            elif entry[0] == "view":
                bad = _max_abs_diff(entry[1], truth[:forward]) > XTC_TOLERANCE
            else:
                bad = _max_abs_diff(entry[2], truth[entry[1]]) > lod_bound
            failures += bad
        checks += 1
        if not self.ada.plfs.fsck()["ok"]:
            failures += 1
        # The random LOD windows, replayed, against the generated frames.
        wc, cf = s["window_chunks"], s["chunk_frames"]
        for w in sorted(set(self.lod_windows)):
            objs = self.sim.run_process(
                self.ada.fetch_chunks(
                    self.logical, PLAYBACK_TAG,
                    list(range(w * wc, (w + 1) * wc)), precision="lod",
                )
            )
            got = np.concatenate([decode_xtc(o.data).coords for o in objs])
            lo = w * wc * cf
            checks += 1
            if _max_abs_diff(got, truth[lo:lo + wc * cf]) > lod_bound:
                failures += 1
        return checks, failures

    def stats(self) -> Dict[str, float]:
        return {
            "stream.window_decodes": float(self._stream_stats["decodes"]),
            "stream.window_hits": float(self._stream_stats["hits"]),
            "animation.hits": float(self._anim_stats["hits"]),
            "animation.misses": float(self._anim_stats["misses"]),
        }

    def close(self) -> None:
        self.ada.preprocessor.close()


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        IngestStream, IngestInsitu, ServeWarm, ServeShardedMixed, PlaybackScrub
    )
}


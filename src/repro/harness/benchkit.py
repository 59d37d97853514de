"""Bench kit: what every ``bench-*`` engineering gate is built from.

The paper's evaluation is one playback procedure run on several
platforms; the repo's gates have the same shape, so the fixed parts
exist once, here, as plain functions:

* the **dataset** -- :func:`chunked_catalog`: seeded GPCR-like
  trajectories cut into raw-container chunks (what a running simulation
  appends over time), landed by :func:`ingest_chunks`;
* the **deployment** -- :func:`hdd_ada`: one middleware over a single
  rotating disk (the paper's HDD scenario, where the per-request seek
  tax is what coalescing, caching and prefetching amortize), plus
  :func:`storage_cpu` for the write-path gates;
* the **playback loop** -- :func:`chunk_windows` + :func:`play_windows`
  for one viewer, :func:`run_traffic` for many tenants behind a
  :class:`~repro.serve.ServeFront`;
* the **checks and the record** -- :func:`store_digest`,
  :func:`counter_values`, :func:`percentile`, :func:`jain_index`,
  :func:`dump_record`;
* the **gate** -- a harness's ``GATE`` is a list of :class:`Row` entries read
  off its record; :func:`check_gate` is their one evaluator,
  :func:`gate_pass` the record's ``pass`` and :func:`render_gate` the one
  text view (CLI text mode, ``BENCH_*.txt``, ``python -m repro scorecard``).

Variants are only comparable when one dataset/deployment recipe sits
under all of them, so a harness states its scenario matrix, ``FLOORS``
and ``GATE`` -- nothing else.  The table that turns a harness into a CLI
target lives beside the CLI (``repro.cli.BENCHES``).
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.node import ComputeNode
from repro.core import ADA
from repro.errors import ConfigurationError
from repro.formats.xtc import encode_raw
from repro.fs.localfs import LocalFS
from repro.harness.calibration import E5_2603V4
from repro.harness.report import Table
from repro.serve import DatasetRef, ServeFront, TrafficConfig, TrafficGenerator
from repro.sim import AllOf, Simulator
from repro.storage.hdd import WD_1TB_HDD
from repro.storage.power import NodePower
from repro.workloads import build_workload

__all__ = [
    "PLAYBACK_TAG",
    "Row",
    "check_gate",
    "chunk_windows",
    "chunked_catalog",
    "counter_values",
    "dump_record",
    "gate_pass",
    "hdd_ada",
    "ingest_chunks",
    "jain_index",
    "percentile",
    "play_windows",
    "render_gate",
    "run_traffic",
    "seal",
    "storage_cpu",
    "store_digest",
]

#: The tag every playback window reads (the paper's hot protein subset).
PLAYBACK_TAG = "p"


# -- dataset -------------------------------------------------------------------


def chunked_catalog(
    ndatasets: int,
    natoms: int,
    nchunks: int,
    frames_per_chunk: int,
    seed: int,
) -> List[Tuple[str, str, List[bytes]]]:
    """``(logical, pdb_text, chunk blobs)`` per dataset, deterministic.

    Dataset ``i`` is the ``seed + i`` workload cut into ``nchunks``
    raw-container chunks; each becomes one PLFS chunk per subset, giving
    the chunk-granular read path something real to coalesce and prefetch.
    """
    out = []
    for index in range(ndatasets):
        workload = build_workload(
            natoms=natoms,
            nframes=nchunks * frames_per_chunk,
            seed=seed + index,
        )
        blobs = [
            encode_raw(
                workload.trajectory.slice_frames(
                    i * frames_per_chunk, (i + 1) * frames_per_chunk
                )
            )
            for i in range(nchunks)
        ]
        out.append((f"traj{index}.xtc", workload.pdb_text, blobs))
    return out


def ingest_chunks(
    front, logical: str, pdb_text: str, blobs: Sequence[bytes]
) -> None:
    """Ingest the first chunk, append the rest, one process each.

    ``front`` is any data plane (``ADA`` or ``ShardedADA``).
    """
    sim = front.sim
    sim.run_process(front.ingest(logical, pdb_text, blobs[0]))
    for blob in blobs[1:]:
        sim.run_process(front.ingest_append(logical, blob))


# -- deployment ----------------------------------------------------------------


def hdd_ada(sim: Simulator, **ada_kwargs) -> ADA:
    """One middleware over a single rotating disk; the rest is the caller's."""
    return ADA(
        sim,
        backends={"hdd": LocalFS(sim, WD_1TB_HDD, name="hdd")},
        **ada_kwargs,
    )


def storage_cpu(sim: Simulator) -> ComputeNode:
    """The storage-side CPU the write-path gates charge (Table 4 node).

    Its decompress+categorize charge is what the write-behind queue
    overlaps with the disk's seek-amortized span writes.
    """
    return ComputeNode(
        sim, "storage0", E5_2603V4, memory_capacity=64 << 30,
        power=NodePower(idle_w=330.0, cpu_active_w=60.0, io_active_w=10.0),
    )


# -- playback ------------------------------------------------------------------


def chunk_windows(
    nchunks: int, window_chunks: int, pattern: str = "scrub"
) -> List[List[int]]:
    """The chunk windows one playback pass visits, in visit order.

    ``scrub`` plays forward, ``backward`` rewinds, ``skip`` is the jumpy
    ensemble browse.
    """
    if window_chunks < 1:
        raise ConfigurationError(
            f"window_chunks must be >= 1, got {window_chunks}"
        )
    starts = list(range(0, nchunks, window_chunks))
    if pattern == "scrub":
        ordered = starts
    elif pattern == "backward":
        ordered = list(reversed(starts))
    elif pattern == "skip":
        # Alternating jumps of 2 and 3 windows, so no exact stride ever
        # repeats -- only the prefetcher's direction-only detector can
        # keep readahead live here.
        ordered, i, jump = [], 0, 2
        while i < len(starts):
            ordered.append(starts[i])
            i += jump
            jump = 5 - jump
    else:
        raise ConfigurationError(f"unknown scrub pattern {pattern!r}")
    return [
        list(range(s, min(s + window_chunks, nchunks))) for s in ordered
    ]


def play_windows(
    ada: ADA,
    logical: str,
    tag: str,
    windows: Sequence[Sequence[int]],
    precision: str,
) -> Tuple[float, int, str]:
    """One playback pass; returns (simulated seconds, bytes served, digest).

    Per window the consumer pays the calibrated single-thread CPU time to
    scan and render the served bytes (Xeon E5-2603 v4 rates, Table 4) --
    the work the prefetcher's span reads overlap with, and why a coarse
    window is cheaper end to end, not just on the wire.
    """
    sim = ada.sim
    digest = hashlib.sha256()
    served = 0

    def consumer():
        nonlocal served
        for window in windows:
            objs = yield from ada.fetch_chunks(
                logical, tag, window, precision=precision
            )
            nbytes = 0
            for obj in objs:
                digest.update(obj.data)
                nbytes += obj.nbytes
            served += nbytes
            yield sim.timeout(nbytes / E5_2603V4.scan_rate)
            yield sim.timeout(nbytes / E5_2603V4.render_rate)

    started = sim.now
    sim.run_process(consumer())
    return sim.now - started, served, digest.hexdigest()


def run_traffic(
    front: ServeFront,
    tenants: Sequence[str],
    catalog: Sequence[DatasetRef],
    config: TrafficConfig,
) -> Dict[str, object]:
    """Drive the tenant loops to completion; returns per-tenant results."""
    sim = front.sim
    generator = TrafficGenerator(catalog, config)
    procs = {
        name: sim.process(
            generator.tenant_loop(front.session(name)),
            name=f"traffic:{name}",
        )
        for name in tenants
    }

    def driver():
        yield AllOf(sim, list(procs.values()))
        return None

    started = sim.now
    sim.run_process(driver())
    elapsed = sim.now - started

    per_tenant: Dict[str, Dict[str, object]] = {}
    for name, proc in procs.items():
        stats = proc.value
        latencies = [
            r.latency_s
            for r in front.scheduler.completed.get(name, [])
            if r.ok
        ]
        per_tenant[name] = {
            "completed": stats.completed,
            "failed": stats.failed,
            "rejected": stats.rejected,
            "served_bytes": stats.served_bytes,
            "digest": stats.hexdigest(),
            "p50_s": round(percentile(latencies, 0.50), 6),
            "p99_s": round(percentile(latencies, 0.99), 6),
        }
    all_latencies = [
        r.latency_s
        for name in tenants
        for r in front.scheduler.completed.get(name, [])
        if r.ok
    ]
    return {
        "elapsed_s": round(elapsed, 6),
        "p50_s": round(percentile(all_latencies, 0.50), 6),
        "p99_s": round(percentile(all_latencies, 0.99), 6),
        "completed": sum(t["completed"] for t in per_tenant.values()),
        "failed": sum(t["failed"] for t in per_tenant.values()),
        "rejected": sum(t["rejected"] for t in per_tenant.values()),
        "per_tenant": per_tenant,
    }


# -- checks and the record -----------------------------------------------------


def store_digest(ada: ADA) -> str:
    """SHA-256 over every backend's full contents (paths and bytes).

    Covers subset chunks, the container index, and the label file, so two
    scenarios match only if chunk numbering, placement, CRCs, and index
    records are all identical.
    """
    digest = hashlib.sha256()
    for name in sorted(ada.plfs.backends):
        fs = ada.plfs.backends[name]
        for path in sorted(fs.store.walk()):
            digest.update(name.encode())
            digest.update(path.encode())
            digest.update(fs.store.data(path))
    return digest.hexdigest()


def counter_values(metrics, prefix: str, *fields: str) -> Dict[str, object]:
    """``{field: value}`` of the ``<prefix>_<field>_total`` counters."""
    return {f: metrics.value(f"{prefix}_{f}_total") for f in fields}


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile over the sample (no interpolation)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def jain_index(shares: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly equal, 1/n = one hog."""
    values = [float(v) for v in shares]
    if not values or not any(values):
        return 0.0
    square_of_sum = sum(values) ** 2
    sum_of_squares = sum(v * v for v in values)
    return square_of_sum / (len(values) * sum_of_squares)


def dump_record(result: dict) -> str:
    """The one serialisation of a bench record (what ``BENCH_*.json`` holds,
    minus the trailing newline every artifact writer adds)."""
    return json.dumps(result, indent=2)


# -- the gate ------------------------------------------------------------------

_OPS = {
    ">=": operator.ge, ">": operator.gt, "<=": operator.le,
    "<": operator.lt, "==": operator.eq,
}
_MISSING = object()


class Row(NamedTuple):
    """One term of a gate: ``record[path] op bound``.

    ``path`` is dotted (``"speedup_vs_serial.prefetch"``).  A string
    ``bound`` is another record path -- ``"floors.<key>"`` for a tunable
    floor, which the record carries -- anything else is the bound itself.
    """

    path: str
    op: str
    bound: object


class Verdict(NamedTuple):
    row: Row
    measured: object
    bound: object
    ok: Optional[bool]  # None: the record does not carry ``row.path``


def _lookup(record: dict, path: str) -> object:
    value = record
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return _MISSING
        value = value[key]
    return value


def check_gate(rows: Sequence[Row], record: dict) -> List[Verdict]:
    """Every row evaluated on ``record``: the gate's one evaluator.

    A row whose ``path`` the record lacks reads ``ok=None`` and gates
    nothing (a partial run, ``bench-lod --precision full``, carries no
    tier comparison); a value that does not compare (``None``) fails.
    """
    verdicts = []
    for row in rows:
        measured = _lookup(record, row.path)
        bound = (
            _lookup(record, row.bound) if isinstance(row.bound, str)
            else row.bound
        )
        ok: Optional[bool] = None
        if measured is not _MISSING:
            try:
                ok = bool(_OPS[row.op](measured, bound))
            except TypeError:
                ok = False
        verdicts.append(Verdict(row, measured, bound, ok))
    return verdicts


def gate_pass(rows: Sequence[Row], record: dict) -> bool:
    """A record's ``pass``: every row it carries holds."""
    return all(v.ok is not False for v in check_gate(rows, record))


def seal(rows: Sequence[Row], record: dict, places: Dict[str, int]) -> None:
    """``pass`` from the raw values, then each ``places`` path rounded to
    its digits for the artifact: rounding never moves a verdict."""
    record["pass"] = gate_pass(rows, record)
    for path, ndigits in places.items():
        parent, _, key = path.rpartition(".")
        node = _lookup(record, parent) if parent else record
        node[key] = round(node[key], ndigits)


def render_gate(title: str, rows: Sequence[Row], record: dict) -> str:
    """Any record as its gate: path, bound, measured value, verdict."""
    table = Table(["row", "bound", "measured", "verdict"], title=title)
    for v in check_gate(rows, record):
        named = f" ({v.row.bound})" if isinstance(v.row.bound, str) else ""
        table.add_row(
            v.row.path,
            f"{v.row.op} {v.bound}{named}",
            "-" if v.measured is _MISSING else v.measured,
            {True: "PASS", False: "FAIL", None: "n/a"}[v.ok],
        )
    return f"{table.render()}\npass: {gate_pass(rows, record)}"

"""End-to-end benchmark: two clocks, five workloads, per-layer attribution.

    PYTHONPATH=src python -m benchmarks.e2e.run [--seed N] [--workload W]
        [--seconds S] [--smoke] [--trace [0|1]] [--sets K]

With ``--workload`` one workload runs in this interpreter and the last
line of standard output is the result object the driver reads.  Without
it every workload runs, one after another, each in a fresh interpreter.
See ``README.md`` beside this file for the metric glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
    sys.stderr.write(
        f"benchmarks.e2e: no program to measure under {_ROOT}/src/repro\n"
    )
    sys.exit(2)
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.errors import DegradedReadWarning  # noqa: E402
from repro.harness.benchserve import jain_index, percentile  # noqa: E402
from repro.obs.metrics import global_registry  # noqa: E402

from benchmarks.e2e import spec  # noqa: E402
from benchmarks.e2e.trace import HostTracer  # noqa: E402
from benchmarks.e2e.yardstick import NOMINAL_MS, Yardstick  # noqa: E402

RESULTS_DIR = os.path.join(_HERE, "results")

#: Tail percentiles tried, highest first; the one reported is the highest
#: with at least ten samples beyond it.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.90, 0.75)


# --------------------------------------------------------------------------
# small statistics
# --------------------------------------------------------------------------


def tail_quantile(nsamples: int) -> float:
    for q in TAIL_LADDER:
        if nsamples * (1.0 - q) >= 10:
            return q
    return 0.5


def host_info() -> Dict[str, object]:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


# --------------------------------------------------------------------------
# registry snapshots (the "count" clock)
# --------------------------------------------------------------------------


class Counters:
    """Diff of the public ``MetricsRegistry`` across the measured phase."""

    def __init__(self, registries) -> None:
        self.registries = list(registries)
        self.before: Dict[tuple, object] = {}
        self.after: Dict[tuple, object] = {}

    def _snapshot(self) -> Dict[tuple, object]:
        out: Dict[tuple, object] = {}
        for registry in self.registries:
            for name, kind, metrics in registry.families():
                for metric in metrics:
                    if kind == "histogram":
                        value = (metric.count, metric.sum)
                    else:
                        value = metric.value
                    out[(name, metric.labels)] = value
        return out

    def start(self) -> None:
        self.before = self._snapshot()

    def stop(self) -> None:
        self.after = self._snapshot()

    def _matching(self, name: str, labels: Dict[str, str]):
        wanted = set((k, str(v)) for k, v in labels.items())
        for (family, label_key), value in self.after.items():
            if family == name and wanted <= set(label_key):
                yield (family, label_key), value

    def delta(self, name: str, **labels) -> float:
        """Counter growth over the phase, summed over matching label sets."""
        total = 0.0
        for key, value in self._matching(name, labels):
            total += value - self.before.get(key, 0)
        return total

    def hist(self, name: str, **labels) -> Tuple[float, float]:
        """``(observations, sum)`` a histogram gained over the phase."""
        count = total = 0.0
        for key, (c, s) in self._matching(name, labels):
            c0, s0 = self.before.get(key, (0, 0.0))
            count += c - c0
            total += s - s0
        return count, total

    def device_labels(self) -> List[str]:
        return sorted(
            {
                dict(label_key).get("device", "")
                for (family, label_key) in self.after
                if family == "device_ops_total"
            }
        )


# --------------------------------------------------------------------------
# one workload, one pass
# --------------------------------------------------------------------------


def _plain_slice(body) -> float:
    t0 = perf_counter()
    body()
    return perf_counter() - t0


def measured_pass(cls, seed: int, sizes: Dict[str, int], tracer, setups: int,
                  yardstick: Yardstick, sim_spans: bool = False):
    """Set up ``setups`` times (keeping the last), run and harvest every
    slice, and return everything the metric code needs.  The yardstick is
    timed after every slice, outside the slice's own timer."""
    setup_s: List[float] = []
    setup_yard_s: List[float] = []
    workload = None
    for _ in range(setups):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()  # the previous deployment, outside any timer
        t0 = perf_counter()
        workload = cls(seed, sizes, tracer, sim_spans)
        workload.setup()
        setup_s.append(perf_counter() - t0)
        setup_yard_s.append(
            statistics.median(yardstick.run() for _ in range(3))
        )
    time_slice = tracer.timed_slice if tracer is not None else _plain_slice
    if tracer is not None:
        tracer.reset()
        tracer.recording = True
    # Codec pools opened without an explicit registry count into the
    # process-wide one.
    counters = Counters([workload.metrics, global_registry()])
    events_before = workload.sim.events_processed
    counters.start()
    slice_s: List[float] = []
    yard_s: List[float] = [yardstick.run()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for index in range(workload.nslices):
            slice_s.append(time_slice(lambda: workload.run_slice(index)))
            workload.harvest(index)
            yard_s.append(yardstick.run())
    counters.stop()
    profile = None
    if tracer is not None:
        tracer.recording = False
        profile = tracer.freeze()
    return {
        "workload": workload,
        "setup_s": setup_s,
        "setup_yard_s": setup_yard_s,
        "slice_s": slice_s,
        "yard_s": yard_s,
        "counters": counters,
        "events": workload.sim.events_processed - events_before,
        "degraded": sum(
            issubclass(entry.category, DegradedReadWarning) for entry in caught
        ),
        "profile": profile,
    }


def end_to_end(run: dict) -> Tuple[Dict[str, dict], dict]:
    """The headline metrics of an untraced pass, plus their annotations."""
    workload, counters = run["workload"], run["counters"]
    log = workload.log
    per_op_us = [s / workload.ops_per_slice * 1e6 for s in run["slice_s"]]
    q = tail_quantile(len(log.sim_ms))
    # Lifetime device bytes (catalogue ingest + warm-up + measured phase):
    # on the hit path the measured phase alone moves none, and a metric
    # that reads 0 cannot carry a relative bound.
    device_bytes = sum(
        value
        for (family, _labels), value in counters.after.items()
        if family == "device_bytes_total"
    )
    makespan = (log.sim_end_s - log.sim_start_s) if log.sim_ms else 0.0
    # Host times are restated at the yardstick's nominal speed: the box's
    # speed wanders by tens of percent between runs (see yardstick.py).
    yard_ms = statistics.median(run["yard_s"]) * 1e3
    values = {
        "setup_s": statistics.median(
            seconds * NOMINAL_MS / (yard * 1e3)
            for seconds, yard in zip(run["setup_s"], run["setup_yard_s"])
        ),
        "host_us_per_op": statistics.median(per_op_us) * NOMINAL_MS / yard_ms,
        "host_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "sim_makespan_s": makespan,
        "sim_op_p50_ms": percentile(log.sim_ms, 0.50),
        "sim_op_tail_ms": percentile(log.sim_ms, q),
        "device_bytes_per_payload_byte": device_bytes / max(1, log.payload_bytes),
    }
    metrics = {
        m.name: {"value": values[m.name], "unit": m.unit}
        for m in spec.END_TO_END
    }
    notes = {
        "slices": len(per_op_us),
        "ops_per_slice": workload.ops_per_slice,
        "wallclock_us_per_op_by_slice": per_op_us,
        "yardstick_ms_by_slice": [y * 1e3 for y in run["yard_s"]],
        "yardstick_ms_median": yard_ms,
        "yardstick_nominal_ms": NOMINAL_MS,
        "sim_op_samples": len(log.sim_ms),
        "sim_op_tail_percentile": q,
        "setup_samples_s": run["setup_s"],
        "setup_yardstick_ms": [y * 1e3 for y in run["setup_yard_s"]],
        "measured_phase_host_s": sum(run["slice_s"]),
        "payload_bytes": log.payload_bytes,
        "device_bytes_lifetime": device_bytes,
    }
    return metrics, notes


def per_layer(run: dict, reference: dict,
              checks: int, verify_failures: int) -> Dict[str, dict]:
    """Every per-layer metric of a traced pass (``reference`` is the pass
    without host wrappers that ran before it)."""
    workload, c = run["workload"], run["counters"]
    profile = run["profile"]  # frozen at the end of the measured phase
    log = workload.log
    extra = workload.stats()
    ops = max(1, log.attempted)
    # The reference phase, restated at the machine speed the traced phase
    # ran at (the two are minutes apart on a box whose speed wanders).
    speed = statistics.median(run["yard_s"]) / statistics.median(
        reference["yard_s"]
    )
    reference_s = (sum(reference["slice_s"]) * speed) or 1.0
    traced_s = sum(run["slice_s"])
    profile.scale_to(reference_s)
    named = {k: v["compensated_s"] for k, v in profile.self_times().items()}
    covered = sum(named.values()) or 1.0

    def share(*prefixes: str) -> float:
        return sum(
            seconds for layer, seconds in named.items()
            if any(layer == p or layer.startswith(p + ".") for p in prefixes)
        ) / covered

    def self_us_per_op(*prefixes: str) -> float:
        return share(*prefixes) * covered / ops * 1e6

    def per_call(name: str, scale: float, by_units: bool = False) -> float:
        row = profile.by_name(name)
        denom = row["units"] if by_units else row["calls"]
        return row["incl_s"] / denom * scale if denom else 0.0

    hits = c.delta("block_cache_hits_total")
    misses = c.delta("block_cache_misses_total")
    runs, _ = c.hist("retriever_run_bytes")
    read_chunks = profile.by_name("PLFS.read_chunk_run")["units"]
    write_chunks = profile.by_name("PLFS.write_chunk_run")["units"]
    prefetch_hits = c.delta("block_cache_prefetch_hits_total")
    prefetched = c.delta("retriever_prefetched_chunks_total")
    suppressed = sum(
        c.delta(f"prefetch_suppressed_{why}_total")
        for why in ("pressure", "degraded", "pattern", "inflight", "eof",
                    "budget")
    )
    busy = {"ssd": 0.0, "hdd": 0.0}
    for device in c.device_labels():
        kind = "ssd" if "SSD" in device.upper() else "hdd"
        busy[kind] += c.hist("device_service_seconds", device=device)[1]
    decode = [profile.by_name(n) for n in ("decode_xtc", "decode_frame_range")]
    decode_frames = sum(r["units"] for r in decode)
    decode_s = sum(r["incl_s"] for r in decode)
    natoms_bytes = _decoded_bytes(workload, decode_frames)
    encode = profile.by_name("encode_xtc")
    consume = profile.by_name("InSituAnalysis.consume")
    contacts = profile.by_name("OnlineContacts.update")
    by_node = extra.get("cluster.served_bytes_by_node") or []
    mean_node = (sum(by_node) / len(by_node)) if by_node else 0.0
    stream_total = extra.get("stream.window_decodes", 0.0) + extra.get(
        "stream.window_hits", 0.0
    )
    anim_total = extra.get("animation.hits", 0.0) + extra.get(
        "animation.misses", 0.0
    )
    tracer_names = (
        "span", "Tracer.span", "Tracer.current", "_SpanContext.__exit__",
        "Span.tag",
    )
    sim_self = share("sim") * covered
    values = {
        "sim.events_per_op": run["events"] / ops,
        "sim.host_us_per_event": sim_self / max(1, run["events"]) * 1e6,
        "sim.host_self_share": share("sim"),
        "obs.host_self_share": share("obs"),
        "obs.tracer_overhead_share": sum(
            profile.by_name(n)["self_s"] for n in tracer_names
        ) / covered,
        "serve.host_self_us_per_op": self_us_per_op("serve"),
        "serve.sim_queue_wait_p50_ms": percentile(log.wait_ms, 0.50),
        "serve.sim_queue_wait_tail_ms": percentile(
            log.wait_ms, tail_quantile(len(log.wait_ms))
        ),
        "serve.admission_rejected": c.delta("serve_rejected_total"),
        "serve.jain_served_bytes": jain_index(
            list(log.served_by_tenant.values())
        ),
        "serve.sim_write_p50_ms": percentile(log.write_ms, 0.50),
        "cluster.host_self_us_per_op": self_us_per_op("cluster.shard"),
        "cluster.node_imbalance": (
            (max(by_node) - mean_node) / mean_node if mean_node else 0.0
        ),
        "cluster.failovers": c.delta("cluster_failovers_total"),
        "cluster.lod_routed": c.delta("cluster_lod_routed_total"),
        "core.middleware.host_self_us_per_op": self_us_per_op(
            "core.middleware"
        ),
        "core.retriever.host_self_us_per_op": self_us_per_op("core.retriever"),
        "core.retriever.read_runs_per_op": runs / ops,
        "core.retriever.chunks_per_run": read_chunks / runs if runs else 0.0,
        "core.retriever.dedup_joins": c.delta("retriever_dedup_waits_total"),
        "core.prefetch.issued": c.delta("prefetch_issued_total"),
        "core.prefetch.useful_ratio": (
            prefetch_hits / prefetched if prefetched else 0.0
        ),
        "core.prefetch.suppressed": suppressed,
        "core.preprocessor.host_ms_per_window": per_call(
            "DataPreProcessor.process_windows", 1e3, by_units=True
        ),
        "core.ingest.sim_backpressure_wait_s": c.delta(
            "ingest_backpressure_seconds_total"
        ),
        "core.ingest.overlap_ratio": extra.get("ingest.overlap_ratio", 0.0),
        "core.ingest.peak_buffered_mb": extra.get(
            "ingest.buffered_bytes_peak", 0.0
        ) / 2**20,
        "fs.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "fs.cache.evictions": c.delta("block_cache_evictions_total"),
        "fs.cache.invalidations": c.delta("block_cache_invalidations_total"),
        "fs.cache.host_self_us_per_op": self_us_per_op("fs.cache"),
        "fs.plfs.host_self_us_per_chunk": (
            share("fs.plfs") * covered / (read_chunks + write_chunks) * 1e6
            if read_chunks + write_chunks else 0.0
        ),
        "fs.plfs.span_reads": profile.by_name("LocalFS.read_span")["calls"],
        "fs.plfs.span_writes": profile.by_name("LocalFS.write_span")["calls"],
        "fs.plfs.crc_refetches": c.delta("retry_corruption_detected_total"),
        "storage.sim_busy_s.ssd": busy["ssd"],
        "storage.sim_busy_s.hdd": busy["hdd"],
        "storage.sim_wait_s": _device_wait_s(workload),
        "storage.requests": c.delta("device_ops_total"),
        "storage.bytes_read": c.delta("device_bytes_total", op="read"),
        "storage.bytes_written": c.delta("device_bytes_total", op="write"),
        "formats.xtc.decode_host_ms_per_frame": (
            decode_s / decode_frames * 1e3 if decode_frames else 0.0
        ),
        "formats.xtc.encode_host_ms_per_frame": (
            encode["incl_s"] / encode["units"] * 1e3 if encode["units"] else 0.0
        ),
        "formats.xtc.decode_raw_mb_per_s": (
            natoms_bytes / decode_s / 1e6 if decode_s else 0.0
        ),
        "formats.raw.decode_host_us_per_chunk": per_call("decode_raw", 1e6),
        "formats.codecexec.tasks": c.delta("codec_tasks_total"),
        "formats.frameindex.builds": profile.by_name("FrameIndex.build")["calls"],
        "formats.host_self_share": share("formats"),
        "vmd.loader.host_ms_per_load": per_call(
            "TrajectoryLoader.load_subset", 1e3
        ),
        "vmd.streaming.window_decodes": extra.get("stream.window_decodes", 0.0),
        "vmd.streaming.window_hit_ratio": (
            extra.get("stream.window_hits", 0.0) / stream_total
            if stream_total else 0.0
        ),
        "vmd.render.host_ms_per_frame": per_call(
            "GeometryBuilder.render_frame", 1e3
        ),
        "vmd.animation.cache_hit_ratio": (
            extra.get("animation.hits", 0.0) / anim_total if anim_total else 0.0
        ),
        "vmd.host_self_share": share("vmd"),
        "analysis.online.host_ms_per_frame": (
            consume["incl_s"] / consume["units"] * 1e3 if consume["units"] else 0.0
        ),
        "analysis.online.contacts_host_ms_per_frame": (
            contacts["incl_s"] / contacts["units"] * 1e3
            if contacts["units"] else 0.0
        ),
        "analysis.online.host_self_share": share("analysis"),
        "analysis.sim_seconds": c.delta("analysis_seconds_total"),
        "driver.host_self_share": share("driver"),
        # What the named layers (driver included) fail to explain of the
        # reference phase: code that ran outside every layer, plus any
        # mismatch left after overhead compensation.
        "unattributed_host_share": abs(
            1.0 - (covered - named.get("other", 0.0)) / reference_s
        ),
        "trace_overhead_share": traced_s / reference_s - 1.0,
        "failed_share": (
            log.failed + run["degraded"] + verify_failures
        ) / max(1, log.attempted + checks),
    }
    return {
        m.name: {"value": float(values[m.name]), "unit": m.unit}
        for m in spec.PER_LAYER
    }


def _decoded_bytes(workload, frames: float) -> float:
    """Raw bytes the XTC decodes produced (frames x tag atoms x 12)."""
    if not frames:
        return 0.0
    p_idx = getattr(workload, "p_idx", None)
    if p_idx is not None:
        return frames * len(p_idx) * 12.0
    system = getattr(getattr(workload, "workload", None), "system", None)
    return frames * system.natoms * 12.0 if system is not None else 0.0


def _device_wait_s(workload) -> float:
    """Simulated seconds requests queued at devices: ``device.*`` span
    duration minus the device's own service time for that request."""
    tracer = workload.sim_tracer
    if tracer is None:
        return 0.0
    specs = {}
    for registry_owner in _filesystems(workload):
        specs[registry_owner.device.name] = registry_owner.device.spec
    wait = 0.0
    phase_start = workload.log.sim_start_s or 0.0
    for name, timer in (("device.read", "read_time"), ("device.write", "write_time")):
        for sp in tracer.find(name):
            device_spec = specs.get(sp.tags.get("device"))
            if (
                device_spec is None or sp.end_s is None
                or sp.start_s < phase_start
            ):
                continue
            service = getattr(device_spec, timer)(
                sp.tags["nbytes"], sp.tags["requests"]
            )
            wait += max(0.0, (sp.end_s - sp.start_s) - service)
    return wait


def _filesystems(workload):
    if hasattr(workload, "sharded"):
        for node in workload.sharded.nodes.values():
            yield from node.ada.plfs.backends.values()
    else:
        yield from workload.ada.plfs.backends.values()


# --------------------------------------------------------------------------
# running and reporting
# --------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, setups: Optional[int] = None) -> dict:
    """One workload, in this interpreter.  Returns the full record; its
    ``result`` entry is the object the driver reads."""
    from benchmarks.e2e.workloads import WORKLOAD_CLASSES

    wl_spec = next(w for w in spec.WORKLOADS if w.name == name)
    sizes = spec.sizes_for(wl_spec, seconds, smoke)
    cls = WORKLOAD_CLASSES[name]
    if setups is None:
        setups = 1 if (smoke or trace) else spec.SETUP_REPEATS
    record = {
        "workload": name, "why": wl_spec.why, "clients": wl_spec.clients,
        "seed": seed, "seconds": seconds, "smoke": smoke, "traced": trace,
        "sizes": sizes, "host": host_info(),
    }
    # The reference pass of a traced run keeps simulated-clock spans too,
    # so it differs from the traced pass by the host wrappers alone.
    yardstick = Yardstick()
    run = measured_pass(cls, seed, sizes, None, setups, yardstick,
                        sim_spans=trace)
    workload = run["workload"]
    if not trace:
        checks, failures = workload.verify()
        metrics, notes = end_to_end(run)
        result = _result(run, checks, failures, metrics)
        record.update(
            notes=notes, verify_checks=checks, verify_failures=failures,
            failed_share=result["failed"] / result["attempted"],
            result=result,
        )
        workload.close()
        return record
    # Traced pass: the one above is only the reference clock.
    reference = {"slice_s": run["slice_s"], "yard_s": run["yard_s"]}
    workload.close()
    del run, workload
    gc.collect()
    tracer = HostTracer()
    tracer.install()
    try:
        tracer.calibrate()
        run = measured_pass(cls, seed, sizes, tracer, 1, yardstick)
        workload = run["workload"]
        checks, failures = workload.verify()
        metrics = per_layer(run, reference, checks, failures)
    finally:
        tracer.uninstall()
    profile = run["profile"]
    trace_path = os.path.join(RESULTS_DIR, f"trace_{name}.json")
    tracer.write_chrome_trace(trace_path)
    invalid = [
        key for key in ("driver.host_self_share", "unattributed_host_share")
        if metrics[key]["value"] > 0.10
    ]
    record.update(
        layer_table=profile.render_table(),
        self_times=profile.self_times(),
        wrapper_overhead_s={
            "call": tracer.overhead_fn, "resume": tracer.overhead_gen,
            "scale": profile.scale,
        },
        spans_recorded=len(tracer.spans), spans_total=tracer.spans_total,
        chrome_trace=os.path.relpath(trace_path, _ROOT),
        valid=not invalid, invalid_because=invalid,
        verify_checks=checks, verify_failures=failures,
        result=_result(run, checks, failures, metrics),
    )
    workload.close()
    return record


def _result(run: dict, checks: int, failures: int, metrics: dict) -> dict:
    """The object the driver reads off the last line of standard output."""
    log = run["workload"].log
    failed = log.failed + run["degraded"] + failures
    return {
        "correct": failed == 0,
        "attempted": log.attempted + checks,
        "failed": failed,
        "metrics": metrics,
    }


def _catalogue(trace: bool) -> List[spec.Metric]:
    return spec.PER_LAYER if trace else spec.END_TO_END


def render(record: dict) -> str:
    """Every metric by name with its unit and clock, for people."""
    result = record["result"]
    lines = [
        f"== {record['workload']} (seed {record['seed']}, "
        f"{record['clients']}, {'traced' if record['traced'] else 'untraced'})"
    ]
    notes = record.get("notes", {})
    for metric in _catalogue(record["traced"]):
        entry = result["metrics"][metric.name]
        extra = ""
        if metric.name == "host_us_per_op":
            extra = f"  n={notes['slices']} slices"
        elif metric.name == "sim_op_tail_ms":
            extra = (
                f"  p{notes['sim_op_tail_percentile'] * 100:g}"
                f" of {notes['sim_op_samples']} ops"
            )
        elif metric.name == "sim_op_p50_ms":
            extra = f"  n={notes['sim_op_samples']} ops"
        elif metric.name == "setup_s":
            extra = f"  median of {len(notes['setup_samples_s'])}"
        bound = f", bound {metric.bound:.0%}" if metric.bound else ""
        lines.append(
            f"  {metric.name:<44}{entry['value']:>16.6g} {entry['unit']:<6}"
            f"[{metric.clock}{bound}]{extra}"
        )
    if not record["traced"]:
        lines.append(
            f"  {'failed_share':<44}{record['failed_share']:>16.6g} "
            f"{'share':<6}[count, bound 0 absolute]"
        )
    lines.append(
        f"  ops attempted {result['attempted']}, failed {result['failed']}, "
        f"verify checks {record['verify_checks']} "
        f"({record['verify_failures']} failed)"
    )
    if record["traced"]:
        lines.append(record["layer_table"])
        lines.append(
            f"  trace: {record['chrome_trace']} "
            f"({record['spans_recorded']} of {record['spans_total']} spans)"
        )
        if not record["valid"]:
            lines.append(f"  INVALID RUN: {record['invalid_because']} > 0.10")
    return "\n".join(lines)


def _write_record(name: str, payload: dict) -> None:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, name), "w") as handle:
        json.dump(payload, handle, indent=1, default=str)


def _child(workload: str, args, trace: bool) -> dict:
    """Run one workload in a fresh interpreter; returns its record."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "1" if trace else "0",
        "--record",
    ]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload}: benchmark process failed")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_set(args) -> Dict[str, dict]:
    """Every workload, one after another, each in its own interpreter."""
    records: Dict[str, dict] = {}
    names = [args.workload] if args.workload else [w.name for w in spec.WORKLOADS]
    for name in names:
        record = _child(name, args, trace=False)
        print(render(record), flush=True)
        records[name] = record
        if args.trace:
            traced = _child(name, args, trace=True)
            print(render(traced), flush=True)
            records[name + "#traced"] = traced
    return records


def check_sets(sets: List[Dict[str, dict]]) -> int:
    """Self-consistency across ``--sets``: host metrics within their
    bounds, every simulated value and count bit-identical."""
    breaches = 0
    print("== self-consistency across sets")
    for key in sets[0]:
        traced = key.endswith("#traced")
        for metric in _catalogue(traced):
            values = [
                s[key]["result"]["metrics"][metric.name]["value"] for s in sets
            ]
            if metric.clock != "host":
                same = all(v == values[0] for v in values)
                breaches += not same
                if not same:
                    print(f"  {key:<28}{metric.name:<44}NOT IDENTICAL {values}")
                continue
            centre = statistics.median(values)
            spread = (max(values) - min(values)) / centre if centre else 0.0
            limit = metric.bound if metric.bound else None
            flag = ""
            if limit is not None and spread > limit:
                breaches += 1
                flag = "  BREACH"
            print(
                f"  {key:<28}{metric.name:<44}spread {spread:7.2%}"
                + (f" (bound {limit:.0%})" if limit is not None else "")
                + flag
            )
    print(f"  {breaches} breach(es)")
    return breaches


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", choices=[w.name for w in spec.WORKLOADS])
    parser.add_argument("--seconds", type=float, default=spec.BASE_SECONDS)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", nargs="?", const=1, default=0, type=int,
                        choices=(0, 1))
    parser.add_argument("--sets", type=int, default=0)
    parser.add_argument("--record", action="store_true",
                        help="print the full record (not just the result) "
                             "as the last line; used between processes")
    args = parser.parse_args(argv)

    if args.sets:
        sets = [run_set(args) for _ in range(args.sets)]
        _write_record("last_sets.json", {"sets": sets})
        return 1 if check_sets(sets) else 0
    if args.workload is None:
        records = run_set(args)
        _write_record("last_run.json", records)
        bad = [
            key for key, record in records.items()
            if not record["result"]["correct"] or record.get("valid") is False
        ]
        if bad:
            print(f"FAILED: {bad}")
        return 1 if bad else 0

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    _write_record(f"{args.workload}.trace{args.trace}.json", record)
    print(render(record))
    print(json.dumps(record if args.record else record["result"], default=str))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

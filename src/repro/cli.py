"""Command-line interface: regenerate any paper table/figure directly.

Usage::

    python -m repro list                # what can be regenerated
    python -m repro fig7                # one figure to stdout
    python -m repro fig10 -o out.txt    # ... or to a file
    python -m repro all -d results/     # everything into a directory

Each artifact prints its committed ``benchmarks/results/`` file exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import pathlib
import sys
from functools import partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError, TopologyError
from repro.harness import (
    SCENARIOS,
    RunResult,
    fat_node,
    measure_calibration,
    run_sweep,
    run_trace_demo,
    series_pivot,
    small_cluster,
    ssd_server,
)
from repro.harness import (
    benchcluster, benchcodec, benchingest, benchinsitu, benchlod,
    benchpipeline, benchserve, chaos,
)
from repro.harness.asciichart import series_chart
from repro.harness.benchkit import Row, dump_record, render_gate
from repro.harness.profilecpu import CpuProfile, modeled_cpu_profile
from repro.harness.report import Table
from repro.harness.scorecard import render_scorecard
from repro.obs.trace import render_trace
from repro.units import to_gb, to_mb
from repro.workloads import (
    CLUSTER_FRAME_COUNTS,
    FAT_NODE_FRAME_COUNTS,
    SSD_SERVER_FRAME_COUNTS,
    SizingModel,
)

__all__ = ["main", "BENCHES", "COMMANDS", "GENERATORS", "flag_kwargs",
           "render_profiles", "results_to_csv"]

#: The checkout's committed artifacts, whatever the working directory.
_ROOT = pathlib.Path(__file__).resolve().parents[2]
_RESULTS = _ROOT / "benchmarks" / "results"


def _table(title, headers, rows) -> str:
    table = Table(headers, title=title)
    for row in rows:
        table.add_row(*row)
    return table.render()


def _gen_sizes(number, fs_label, frame_counts, to_unit, unit, fmt) -> str:
    """Tables 2 and 6: stored bytes per frame count, one file system each."""
    model, rows = SizingModel.paper(), []
    for nframes in frame_counts:
        d = model.dataset(nframes)
        sizes = (d.compressed_nbytes, d.protein_nbytes, d.raw_nbytes)
        rows.append((f"{nframes:,}", *(format(to_unit(n), fmt) for n in sizes)))
    return _table(
        f"Table {number}: data size comparisons, {fs_label} vs ADA ({unit})",
        ["frames", f"{fs_label} (compressed)", "ADA (protein)", "raw data"],
        rows,
    )


def render_profiles(*profiles: CpuProfile) -> str:
    """Fig. 8's flame-graph view: one bar table per CPU profile."""
    return "\n\n".join(
        _table(
            f"CPU burst, pipeline {profile.pipeline}",
            ["phase", "seconds", "share", ""],
            [(phase, f"{seconds:.3f}", f"{pct:5.1f}%", "#" * int(pct / 2))
             for phase, seconds, pct in profile.rows()],
        )
        for profile in profiles
    )


_PANELS = ("retrieval", "turnaround", "memory")

#: Figs. 7, 9, 10: testbed, frame sweep, file-system label, scenarios (None:
#: all four), metric panels, and the Table 4/5 titles printed above them.
_FIGURES = {
    "fig7": (ssd_server, SSD_SERVER_FRAME_COUNTS, "ext4", None, _PANELS, ()),
    "fig9": (small_cluster, CLUSTER_FRAME_COUNTS, "PVFS", None, _PANELS,
             ("Table 4: system parameters", "Table 4: disk systems spec")),
    "fig10": (fat_node, FAT_NODE_FRAME_COUNTS, "XFS",
              ("C-trad", "D-ada-all", "D-ada-p"), _PANELS + ("energy",),
              ("Table 5: fat-node parameters", "Table 5: disk array")),
}


def _gen_figure(name: str) -> str:
    """The platform's parameter and disk tables, then a pivot table and an
    ASCII chart per metric over the figure's sweep."""
    factory, frame_counts, fs_label, keys, metrics, titles = _FIGURES[name]
    platform = factory()
    panels = [
        _table(title, headers, rows)
        for title, headers, rows in zip(
            titles,
            (["parameter", "value"], ["device", "read", "write", "capacity"]),
            (platform.parameters(), platform.device_inventory()),
        )
    ]
    sweep = run_sweep(factory, frame_counts, keys)
    for metric in metrics:
        panels.append(series_pivot(sweep, metric, fs_label=fs_label).render())
        panels.append(series_chart(sweep, metric, fs_label=fs_label))
    return "\n\n".join(panels)


#: The columns of ``python -m repro figN-csv``: one row per sweep point.
CSV_FIELDS: List[str] = [
    "scenario", "scenario_label", "nframes", "loaded_nbytes", "raw_nbytes",
    "retrieval_s", "turnaround_s", "peak_memory_nbytes", "energy_j",
    "killed", "killed_phase",
]


def results_to_csv(results: Iterable[RunResult], fs_label: str = "FS") -> str:
    """Serialize sweep results as CSV text (header + one row per point)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(CSV_FIELDS)
    for r in results:
        writer.writerow([
            r.scenario, SCENARIOS[r.scenario].display(fs_label), r.nframes,
            r.loaded_nbytes, r.raw_nbytes, f"{r.retrieval_s:.6f}",
            f"{r.turnaround_s:.6f}", f"{r.peak_memory_nbytes:.0f}",
            f"{r.energy_j:.1f}", int(r.killed), r.killed_phase or "",
        ])
    return buffer.getvalue()


def _gen_csv(name: str) -> str:
    factory, frame_counts, fs_label, keys = _FIGURES[name][:4]
    return results_to_csv(run_sweep(factory, frame_counts, keys), fs_label).rstrip()


class Artifact(NamedTuple):
    """One paper artifact: a row of :data:`GENERATORS`."""

    generate: Callable[[], str]  # -> the text, without its final newline
    artifact: Optional[pathlib.Path] = None  # the committed file it rewrites


#: Every paper artifact, generated once: ``python -m repro <name>``, ``all``
#: and ``benchmarks/bench_*.py`` print this text, and a row naming an
#: ``artifact`` reproduces that committed file byte for byte.
GENERATORS: Dict[str, Artifact] = {
    "table2": Artifact(
        lambda: _gen_sizes(2, "ext4", SSD_SERVER_FRAME_COUNTS, to_mb, "MB", ",.0f"),
        _RESULTS / "table2.txt",
    ),
    "table6": Artifact(
        lambda: _gen_sizes(6, "XFS", FAT_NODE_FRAME_COUNTS, to_gb, "GB", ",.1f"),
        _RESULTS / "table6.txt",
    ),
    "calibration": Artifact(
        lambda: _table("Sizing calibration", ["constant", "paper", "measured"],
                       measure_calibration().rows()),
        _RESULTS / "calibration.txt",
    ),
    "fig8": Artifact(
        lambda: render_profiles(*(modeled_cpu_profile(5_006, pipeline=key)
                                  for key in ("C-trad", "D-ada-p"))),
        _RESULTS / "fig8_modeled.txt",
    ),
    **{name: Artifact(partial(_gen_figure, name), _RESULTS / f"{name}.txt")
       for name in _FIGURES},
    **{f"{name}-csv": Artifact(partial(_gen_csv, name)) for name in _FIGURES},
    "scorecard": Artifact(lambda: render_scorecard(_committed_gates())),
}


class Bench(NamedTuple):
    """One ``bench-*`` engineering gate: a row of :data:`BENCHES`."""

    run: Callable[..., dict]  # -> the JSON record; ``record["pass"]`` gates
    gate: List[Row]  # the rows ``pass`` holds; rendered as the text
    artifact: pathlib.Path  # where ``--json`` lands without ``-o``
    flags: Dict[str, str]  # argparse dest -> ``run`` keyword


def _flags(*same: str, **renamed: str) -> Dict[str, str]:
    """Flag map: dests forwarded under their own name, plus the renamed."""
    return {**{dest: dest for dest in same}, **renamed}


#: Every gate the CLI (and ``benchmarks/bench_*.py``) can run.  Adding a
#: gate is adding a row: the flags named here are forwarded only when the
#: user sets them, so each default is stated once -- in ``run``'s signature
#: -- and the no-flag CLI, the pytest wrapper and the committed artifact
#: are the same run.
BENCHES: Dict[str, Bench] = {
    "bench-cluster": Bench(
        benchcluster.run_cluster_bench, benchcluster.GATE,
        _RESULTS / "BENCH_cluster.json",
        _flags("requests_per_tenant", "replicas", "seed",
               nodes="node_counts", zipf="zipf_s"),
    ),
    "bench-codec": Bench(
        benchcodec.run_codec_bench, benchcodec.GATE,
        _RESULTS / "BENCH_codec.json",
        _flags("natoms", "nframes", "keyframe_interval", "repeats"),
    ),
    "bench-ingest": Bench(
        benchingest.run_ingest_bench, benchingest.GATE,
        _RESULTS / "BENCH_ingest.json",
        _flags("natoms", "nframes", "keyframe_interval", "window_frames",
               "depth", "seed"),
    ),
    "bench-insitu": Bench(
        benchinsitu.run_insitu_bench, benchinsitu.GATE,
        _RESULTS / "BENCH_insitu.json",
        _flags("natoms", "nframes", "keyframe_interval", "window_frames",
               "depth", "seed"),
    ),
    "bench-lod": Bench(
        benchlod.run_lod_bench, benchlod.GATE,
        _RESULTS / "BENCH_lod.json",
        _flags("natoms", "nchunks", "frames_per_chunk", "window_chunks",
               "seed", "lod_precision", "precision"),
    ),
    "bench-pipeline": Bench(
        benchpipeline.run_pipeline_bench, benchpipeline.GATE,
        _RESULTS / "BENCH_pipeline.json",
        _flags("nchunks", "frames_per_chunk", "window_chunks", "seed"),
    ),
    "bench-serve": Bench(
        benchserve.run_serve_bench, benchserve.GATE,
        _RESULTS / "BENCH_serve.json",
        _flags("ndatasets", "natoms", "requests_per_tenant", "concurrency",
               "seed", tenants="ntenants", zipf="zipf_s"),
    ),
}

#: The chaos run is gated like a bench; its record is not committed.
CHAOS = Bench(
    chaos.run_chaos, chaos.GATE, pathlib.Path("CHAOS_report.json"),
    _flags("seed", "rounds", rate="transient_rate"),
)


def _committed_gates():
    """``(title, rows, record)`` per bench, over its committed record in
    this checkout (``None`` when the file is absent) -- the scorecard's
    floor rows, the same from any working directory."""
    for name, bench in sorted(BENCHES.items()):
        path = bench.artifact
        record = json.loads(path.read_text()) if path.exists() else None
        yield f"{name} ({path.relative_to(_ROOT)})", bench.gate, record


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the ADA paper (ICPP 2021).",
    )
    parser.add_argument(
        "target",
        choices=sorted(GENERATORS) + sorted(BENCHES) + sorted(COMMANDS)
        + ["all", "list"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "-o", "--output", type=pathlib.Path, default=None,
        help="write to this file instead of stdout",
    )
    parser.add_argument(
        "-d", "--directory", type=pathlib.Path, default=None,
        help="(with 'all') directory to write one file per artifact",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="(bench-*/chaos/metrics/trace) write the JSON record instead "
             "of text; a bench without -o writes its canonical "
             "benchmarks/results/BENCH_*.json",
    )
    # Every flag below defaults to None = "not given": the target then runs
    # with the default its own function signature states.
    bench = parser.add_argument_group(
        "workload flags (unset: the target's own default)"
    )
    bench.add_argument("--seed", type=int,
                       help="workload / fault-plan seed (every bench-*, "
                            "chaos, metrics, trace)")
    bench.add_argument("--natoms", type=int,
                       help="(bench-codec/-ingest/-insitu/-lod/-serve) "
                            "atoms in the generated system")
    bench.add_argument("--nframes", type=int,
                       help="(bench-codec/-ingest/-insitu) trajectory frames")
    bench.add_argument("--keyframe-interval", type=int,
                       help="(bench-codec/-ingest/-insitu) frames per GOF")
    bench.add_argument("--repeats", type=int,
                       help="(bench-codec) best-of-N timing repeats")
    bench.add_argument("--nchunks", type=int,
                       help="(bench-pipeline/-lod) PLFS chunks in the dataset")
    bench.add_argument("--frames-per-chunk", type=int,
                       help="(bench-pipeline/-lod) trajectory frames per "
                            "chunk")
    bench.add_argument("--window-chunks", type=int,
                       help="(bench-pipeline/-lod) chunks per playback window")
    bench.add_argument("--window-frames", type=int,
                       help="(bench-ingest/-insitu) frames per ingest window")
    bench.add_argument("--depth", type=int,
                       help="(bench-ingest/-insitu) write-behind queue depth "
                            "in windows")
    bench.add_argument("--tenants", type=int,
                       help="(bench-serve) concurrent tenant sessions")
    bench.add_argument("--requests-per-tenant", type=int,
                       help="(bench-serve/-cluster) closed/open-loop "
                            "requests each tenant issues")
    bench.add_argument("--concurrency", type=int,
                       help="(bench-serve) scheduler execution slots")
    bench.add_argument("--ndatasets", type=int,
                       help="(bench-serve) trajectories in the Zipf catalog")
    bench.add_argument("--zipf", type=float,
                       help="(bench-serve/-cluster) Zipf skew of dataset "
                            "popularity")
    bench.add_argument("--precision", choices=["full", "lod", "both"],
                       help="(bench-lod) which precision tier(s) to replay; "
                            "the comparative floors only gate a 'both' run")
    bench.add_argument("--lod-precision", type=float,
                       help="(bench-lod) coarse-tier quantization precision "
                            "(positions per nm; 12.5 = 0.04 nm bound)")
    bench.add_argument("--nodes", type=str,
                       help="(bench-cluster) comma-separated node counts "
                            "to sweep (must include 1)")
    bench.add_argument("--replicas", type=int,
                       help="(bench-cluster) replica count for the hot "
                            "playback tag")
    bench.add_argument("--rate", type=float,
                       help="(chaos) transient fault rate per operation")
    bench.add_argument("--rounds", type=int,
                       help="(chaos) read rounds after ingest")
    obs = parser.add_argument_group("metrics / trace options")
    obs.add_argument("--selftest", action="store_true",
                     help="(metrics) exercise the registry + both exporters "
                          "through their parsers and exit")
    obs.add_argument("--logical", default=None,
                     help="(trace) filter timelines to this dataset")
    obs.add_argument("--tag", default=None,
                     help="(trace) filter timelines to this subset tag")
    return parser


def _node_counts(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"bad --nodes value {text!r}") from None


def flag_kwargs(args: argparse.Namespace, flags: Dict[str, str]) -> dict:
    """Keywords for the flags the user set; an unset flag is not passed."""
    kwargs = {}
    for dest, keyword in flags.items():
        value = getattr(args, dest)
        if value is not None:
            kwargs[keyword] = _node_counts(value) if dest == "nodes" else value
    return kwargs


def _emit(text: str, path: Optional[pathlib.Path]) -> None:
    """Write ``text`` and its trailing newline to ``path``, or print it."""
    if path is None:
        print(text)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    print(f"wrote {path}", file=sys.stderr)


def _run_gate(args, name: str, bench: Bench) -> int:
    """Run one gate: its record as JSON, or its rows as text; exit 1 when a
    row fails, 2 when an argument is rejected."""
    try:
        result = bench.run(**flag_kwargs(args, bench.flags))
    except (ValueError, ConfigurationError, TopologyError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit(dump_record(result), args.output or bench.artifact)
    else:
        _emit(render_gate(name, bench.gate, result), args.output)
    if not result["pass"]:
        print(f"repro: {name} failed its gate", file=sys.stderr)
        return 1
    return 0


def _metrics_selftest() -> int:
    """Exercise the registry and both exporters through their parsers."""
    from repro.obs.export import parse_metrics_json, parse_prometheus
    from repro.obs.metrics import MetricsRegistry, TIME_BUCKETS

    registry = MetricsRegistry()
    registry.counter("selftest_ops_total", op="read").inc(3)
    registry.counter("selftest_ops_total", op="write").inc()
    registry.gauge("selftest_inflight").set(2)
    histogram = registry.histogram("selftest_seconds", bounds=TIME_BUCKETS)
    for value in (2e-6, 5e-4, 0.25):
        histogram.observe(value)

    prom = parse_prometheus(registry.to_prometheus())
    record = parse_metrics_json(json.dumps(registry.to_json()))
    by_name = {family["name"]: family for family in record["families"]}
    checks = (
        prom["selftest_ops_total"][(("op", "read"),)] == 3.0,
        prom["selftest_ops_total"][(("op", "write"),)] == 1.0,
        prom["selftest_inflight"][()] == 2.0,
        prom["selftest_seconds_count"][()] == 3.0,
        by_name["selftest_ops_total"]["kind"] == "counter",
        by_name["selftest_seconds"]["metrics"][0]["count"] == 3,
    )
    if not all(checks):
        print("repro: metrics selftest FAILED", file=sys.stderr)
        return 1
    print("metrics selftest: OK "
          f"({len(registry)} metrics round-tripped both exporters)")
    return 0


def _run_metrics(args) -> int:
    """Export the trace-demo run's registry (or run the selftest)."""
    if args.selftest:
        return _metrics_selftest()
    ada, _ = run_trace_demo(**flag_kwargs(args, _flags("seed")))
    if args.json:
        text = json.dumps(ada.metrics.to_json(), indent=2, sort_keys=True)
    else:
        text = ada.metrics.to_prometheus().rstrip("\n")
    _emit(text, args.output)
    return 0


def _run_trace(args) -> int:
    """Render the trace-demo timelines (demand read overlapping prefetch)."""
    _, tracer = run_trace_demo(**flag_kwargs(args, _flags("seed")))
    if args.json:
        text = tracer.to_json(logical=args.logical, tag=args.tag)
    else:
        roots = tracer.traces(logical=args.logical, tag=args.tag)
        text = render_trace(roots) or "(no matching timelines)"
    _emit(text, args.output)
    return 0


#: Targets that are neither a paper artifact nor a ``bench-*`` gate.
COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "chaos": partial(_run_gate, name="chaos", bench=CHAOS),
    "metrics": _run_metrics,
    "trace": _run_trace,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.target == "list":
        for group in (GENERATORS, BENCHES, COMMANDS):
            print("\n".join(sorted(group)))
        return 0
    if args.target in BENCHES:
        return _run_gate(args, args.target, BENCHES[args.target])
    if args.target in COMMANDS:
        return COMMANDS[args.target](args)
    if args.target == "all":
        directory = args.directory or pathlib.Path("results")
        for name, entry in sorted(GENERATORS.items()):
            path = entry.artifact or pathlib.Path(f"{name}.txt")
            _emit(entry.generate(), directory / path.name)
        return 0
    _emit(GENERATORS[args.target].generate(), args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

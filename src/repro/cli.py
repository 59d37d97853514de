"""Command-line interface: regenerate any paper table/figure directly.

Usage::

    python -m repro list                # what can be regenerated
    python -m repro fig7                # one figure to stdout
    python -m repro fig10 -o out.txt    # ... or to a file
    python -m repro all -d results/     # everything into a directory

The same code paths the benchmark suite drives, minus pytest.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.harness import (
    fat_node,
    measure_calibration,
    render_chaos,
    run_chaos,
    run_sweep,
    run_trace_demo,
    series_pivot,
    small_cluster,
    ssd_server,
)
from repro.harness.benchcluster import render_cluster_bench, run_cluster_bench
from repro.harness.benchcodec import render_codec_bench, run_codec_bench
from repro.harness.benchingest import render_ingest_bench, run_ingest_bench
from repro.harness.benchinsitu import render_insitu_bench, run_insitu_bench
from repro.harness.benchkit import dump_record
from repro.harness.benchlod import render_lod_bench, run_lod_bench
from repro.harness.benchpipeline import (
    render_pipeline_bench,
    run_pipeline_bench,
)
from repro.harness.benchserve import render_serve_bench, run_serve_bench
from repro.harness.profilecpu import measured_cpu_profile, modeled_cpu_profile
from repro.harness.report import Table
from repro.obs.trace import render_trace
from repro.units import to_gb, to_mb
from repro.workloads import (
    CLUSTER_FRAME_COUNTS,
    FAT_NODE_FRAME_COUNTS,
    SSD_SERVER_FRAME_COUNTS,
    SizingModel,
)

__all__ = ["main", "BENCHES", "COMMANDS", "GENERATORS", "flag_kwargs"]


def _gen_sizes(number, fs_label, frame_counts, to_unit, unit, fmt) -> str:
    """Tables 2 and 6: stored bytes per frame count, one file system each."""
    model = SizingModel.paper()
    table = Table(
        ["frames", f"{fs_label} (compressed, {unit})",
         f"ADA (protein, {unit})", f"raw ({unit})"],
        title=f"Table {number}: data size comparisons ({fs_label} vs ADA)",
    )
    for nframes in frame_counts:
        d = model.dataset(nframes)
        sizes = (d.compressed_nbytes, d.protein_nbytes, d.raw_nbytes)
        table.add_row(
            f"{nframes:,}", *(format(to_unit(n), fmt) for n in sizes)
        )
    return table.render()


def _gen_fig7() -> str:
    results = run_sweep(ssd_server, SSD_SERVER_FRAME_COUNTS)
    panels = [
        series_pivot(results, metric, fs_label="ext4").render()
        for metric in ("retrieval", "turnaround", "memory")
    ]
    return "\n\n".join(panels)


def _gen_fig8() -> str:
    parts = []
    for pipeline in ("C-trad", "D-trad", "D-ada-p"):
        profile = modeled_cpu_profile(5_006, pipeline=pipeline)
        table = Table(
            ["phase", "seconds", "share"],
            title=f"Fig. 8 (modeled): CPU burst, {pipeline}",
        )
        for phase, seconds, pct in profile.rows():
            table.add_row(phase, f"{seconds:.2f}", f"{pct:.1f}%")
        parts.append(table.render())
    live = measured_cpu_profile(pipeline="C-trad")
    table = Table(
        ["phase", "seconds", "share"],
        title="Fig. 8 (measured on live Python pipeline): C path",
    )
    for phase, seconds, pct in live.rows():
        table.add_row(phase, f"{seconds:.4f}", f"{pct:.1f}%")
    parts.append(table.render())
    return "\n\n".join(parts)


def _gen_fig9() -> str:
    params = Table(["parameter", "value"], title="Table 4: system parameters")
    for name, value in small_cluster().parameters():
        params.add_row(name, value)
    results = run_sweep(small_cluster, CLUSTER_FRAME_COUNTS)
    panels = [params.render()] + [
        series_pivot(results, metric, fs_label="PVFS").render()
        for metric in ("retrieval", "turnaround", "memory")
    ]
    return "\n\n".join(panels)


def _gen_fig10() -> str:
    params = Table(["parameter", "value"], title="Table 5: fat-node parameters")
    for name, value in fat_node().parameters():
        params.add_row(name, value)
    results = run_sweep(
        fat_node, FAT_NODE_FRAME_COUNTS,
        scenario_keys=("C-trad", "D-ada-all", "D-ada-p"),
    )
    panels = [params.render()] + [
        series_pivot(results, metric, fs_label="XFS").render()
        for metric in ("retrieval", "turnaround", "memory", "energy")
    ]
    return "\n\n".join(panels)


def _gen_calibration() -> str:
    report = measure_calibration()
    table = Table(
        ["constant", "paper", "measured"],
        title="Calibration: paper constants vs live generator + codec",
    )
    for row in report.rows():
        table.add_row(*row)
    return table.render()


def _gen_csv(platform_factory, frame_counts, fs_label, scenario_keys=None):
    from repro.harness.figdata import results_to_csv

    results = run_sweep(platform_factory, frame_counts, scenario_keys=scenario_keys)
    return results_to_csv(results, fs_label=fs_label).rstrip()


GENERATORS: Dict[str, Callable[[], str]] = {
    "table2": lambda: _gen_sizes(
        2, "ext4", SSD_SERVER_FRAME_COUNTS, to_mb, "MB", ",.0f"
    ),
    "table6": lambda: _gen_sizes(
        6, "XFS", FAT_NODE_FRAME_COUNTS, to_gb, "GB", ",.1f"
    ),
    "fig7": _gen_fig7,
    "fig8": _gen_fig8,
    "fig9": _gen_fig9,
    "fig10": _gen_fig10,
    "calibration": _gen_calibration,
    "fig7-csv": lambda: _gen_csv(ssd_server, SSD_SERVER_FRAME_COUNTS, "ext4"),
    "fig9-csv": lambda: _gen_csv(small_cluster, CLUSTER_FRAME_COUNTS, "PVFS"),
    "fig10-csv": lambda: _gen_csv(
        fat_node, FAT_NODE_FRAME_COUNTS, "XFS",
        scenario_keys=("C-trad", "D-ada-all", "D-ada-p"),
    ),
    "scorecard": lambda: __import__(
        "repro.harness.scorecard", fromlist=["render_scorecard"]
    ).render_scorecard(),
}


class Bench(NamedTuple):
    """One ``bench-*`` engineering gate: a row of :data:`BENCHES`."""

    run: Callable[..., dict]  # -> the JSON record; ``record["pass"]`` gates
    render: Callable[[dict], str]  # record -> the human-readable sibling
    artifact: pathlib.Path  # where ``--json`` lands without ``-o``
    flags: Dict[str, str]  # argparse dest -> ``run`` keyword


_RESULTS = pathlib.Path("benchmarks/results")


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
        run_cluster_bench, render_cluster_bench,
        _RESULTS / "BENCH_cluster.json",
        _flags("requests_per_tenant", "replicas", "seed",
               nodes="node_counts", zipf="zipf_s"),
    ),
    "bench-codec": Bench(
        run_codec_bench, render_codec_bench,
        _RESULTS / "BENCH_codec.json",
        _flags("natoms", "nframes", "keyframe_interval", "repeats"),
    ),
    "bench-ingest": Bench(
        run_ingest_bench, render_ingest_bench,
        _RESULTS / "BENCH_ingest.json",
        _flags("natoms", "nframes", "keyframe_interval", "window_frames",
               "depth", "seed"),
    ),
    "bench-insitu": Bench(
        run_insitu_bench, render_insitu_bench,
        _RESULTS / "BENCH_insitu.json",
        _flags("natoms", "nframes", "keyframe_interval", "window_frames",
               "depth", "seed"),
    ),
    "bench-lod": Bench(
        run_lod_bench, render_lod_bench,
        _RESULTS / "BENCH_lod.json",
        _flags("natoms", "nchunks", "frames_per_chunk", "window_chunks",
               "seed", "lod_precision", "precision"),
    ),
    "bench-pipeline": Bench(
        run_pipeline_bench, render_pipeline_bench,
        _RESULTS / "BENCH_pipeline.json",
        _flags("nchunks", "frames_per_chunk", "window_chunks", "seed"),
    ),
    "bench-serve": Bench(
        run_serve_bench, render_serve_bench,
        _RESULTS / "BENCH_serve.json",
        _flags("ndatasets", "natoms", "requests_per_tenant", "concurrency",
               "seed", tenants="ntenants", zipf="zipf_s"),
    ),
}


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


def _run_bench(args, name: str) -> int:
    bench = BENCHES[name]
    try:
        result = bench.run(**flag_kwargs(args, bench.flags))
    except ValueError as exc:  # a flag value the bench (or its codec) rejects
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        _emit(dump_record(result), args.output or bench.artifact)
    else:
        _emit(bench.render(result), args.output)
    if not result["pass"]:
        print(f"repro: {name} below its floors", file=sys.stderr)
        return 1
    return 0


def _run_chaos(args) -> int:
    report = run_chaos(
        **flag_kwargs(args, _flags("seed", "rounds", rate="transient_rate"))
    )
    if args.json:
        _emit(
            dump_record(report.as_dict()),
            args.output or pathlib.Path("CHAOS_report.json"),
        )
    else:
        _emit(render_chaos(report), args.output)
    if not report.identical:
        print("repro: chaos run diverged from fault-free baseline",
              file=sys.stderr)
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


#: Targets that are neither a paper artifact nor a gate.
COMMANDS: Dict[str, Callable[[argparse.Namespace], int]] = {
    "chaos": _run_chaos,
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
        return _run_bench(args, args.target)
    if args.target in COMMANDS:
        return COMMANDS[args.target](args)
    if args.target == "all":
        directory = args.directory or pathlib.Path("results")
        for name, gen in sorted(GENERATORS.items()):
            _emit(gen(), directory / f"{name}.txt")
        return 0
    _emit(GENERATORS[args.target](), args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

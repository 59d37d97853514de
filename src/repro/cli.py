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
from typing import Callable, Dict

from repro.harness import (
    fat_node,
    measure_calibration,
    run_sweep,
    series_pivot,
    small_cluster,
    ssd_server,
)
from repro.harness.profilecpu import measured_cpu_profile, modeled_cpu_profile
from repro.harness.report import Table
from repro.units import to_gb, to_mb
from repro.workloads import (
    CLUSTER_FRAME_COUNTS,
    FAT_NODE_FRAME_COUNTS,
    SSD_SERVER_FRAME_COUNTS,
    SizingModel,
)

__all__ = ["main", "GENERATORS"]


def _gen_table2() -> str:
    model = SizingModel.paper()
    table = Table(
        ["frames", "ext4 (compressed, MB)", "ADA (protein, MB)", "raw (MB)"],
        title="Table 2: data size comparisons (ext4 vs ADA)",
    )
    for nframes in SSD_SERVER_FRAME_COUNTS:
        d = model.dataset(nframes)
        table.add_row(
            f"{nframes:,}",
            f"{to_mb(d.compressed_nbytes):,.0f}",
            f"{to_mb(d.protein_nbytes):,.0f}",
            f"{to_mb(d.raw_nbytes):,.0f}",
        )
    return table.render()


def _gen_table6() -> str:
    model = SizingModel.paper()
    table = Table(
        ["frames", "XFS (compressed, GB)", "ADA (protein, GB)", "raw (GB)"],
        title="Table 6: data size comparisons (XFS vs ADA)",
    )
    for nframes in FAT_NODE_FRAME_COUNTS:
        d = model.dataset(nframes)
        table.add_row(
            f"{nframes:,}",
            f"{to_gb(d.compressed_nbytes):,.1f}",
            f"{to_gb(d.protein_nbytes):,.1f}",
            f"{to_gb(d.raw_nbytes):,.1f}",
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
    "table2": _gen_table2,
    "table6": _gen_table6,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate tables/figures of the ADA paper (ICPP 2021).",
    )
    parser.add_argument(
        "target",
        choices=sorted(GENERATORS)
        + ["all", "bench-codec", "bench-cluster", "bench-ingest",
           "bench-insitu", "bench-lod", "bench-pipeline", "bench-serve",
           "chaos", "metrics", "trace", "list"],
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
    bench = parser.add_argument_group("bench-codec options")
    bench.add_argument(
        "--json", action="store_true",
        help="(bench-codec/bench-ingest/bench-pipeline/chaos) write the "
             "JSON record instead of text",
    )
    bench.add_argument("--workers", type=int, default=0,
                       help="host-side codec workers: GOF codec workers "
                            "(bench-codec) and the ingest pre-processor's "
                            "persistent pools (bench-ingest); "
                            "0 = one per CPU")
    bench.add_argument("--codec-backend", default="auto",
                       choices=["auto", "thread", "process"],
                       help="codec worker-pool flavour: 'process' escapes "
                            "the GIL via shared-memory GOF workers, "
                            "'thread' shares the interpreter, 'auto' picks "
                            "per host (bench-codec/bench-ingest)")
    bench.add_argument("--natoms", type=int, default=None,
                       help="(bench-codec/bench-ingest) atoms in the "
                            "generated system")
    bench.add_argument("--nframes", type=int, default=None,
                       help="(bench-codec/bench-ingest) trajectory frames")
    bench.add_argument("--keyframe-interval", type=int, default=None,
                       help="(bench-codec/bench-ingest) frames per GOF")
    bench.add_argument("--repeats", type=int, default=3,
                       help="(bench-codec) best-of-N timing repeats")
    pipe = parser.add_argument_group("bench-pipeline options")
    pipe.add_argument("--nchunks", type=int, default=96,
                      help="(bench-pipeline) PLFS chunks in the dataset")
    pipe.add_argument("--frames-per-chunk", type=int, default=80,
                      help="(bench-pipeline) trajectory frames per chunk")
    pipe.add_argument("--window-chunks", type=int, default=8,
                      help="(bench-pipeline) chunks per playback window")
    ingest = parser.add_argument_group("bench-ingest options")
    ingest.add_argument("--window-frames", type=int, default=8,
                        help="(bench-ingest/bench-insitu) frames per "
                             "ingest window")
    ingest.add_argument("--depth", type=int, default=4,
                        help="(bench-ingest/bench-insitu) write-behind "
                             "queue depth in windows")
    serve = parser.add_argument_group("bench-serve options")
    serve.add_argument("--tenants", type=int, default=8,
                       help="(bench-serve) concurrent tenant sessions")
    serve.add_argument("--requests-per-tenant", type=int, default=24,
                       help="(bench-serve) closed/open-loop requests each "
                            "tenant issues")
    serve.add_argument("--concurrency", type=int, default=4,
                       help="(bench-serve) scheduler execution slots")
    serve.add_argument("--ndatasets", type=int, default=4,
                       help="(bench-serve) trajectories in the Zipf catalog")
    serve.add_argument("--zipf", type=float, default=1.1,
                       help="(bench-serve) Zipf skew of dataset popularity")
    lod = parser.add_argument_group("bench-lod options")
    lod.add_argument("--precision", default="both",
                     choices=["full", "lod", "both"],
                     help="(bench-lod) which precision tier(s) to replay; "
                          "the comparative floors only gate a 'both' run")
    lod.add_argument("--lod-precision", type=float, default=None,
                     help="(bench-lod) coarse-tier quantization precision "
                          "(positions per nm; default 12.5 = 0.04 nm bound)")
    cluster = parser.add_argument_group("bench-cluster options")
    cluster.add_argument("--nodes", type=str, default="1,2,4,8",
                         help="(bench-cluster) comma-separated node counts "
                              "to sweep (must include 1)")
    cluster.add_argument("--replicas", type=int, default=3,
                         help="(bench-cluster) replica count for the hot "
                              "playback tag")
    chaos = parser.add_argument_group("chaos options")
    chaos.add_argument("--seed", type=int, default=0,
                       help="(chaos) fault-plan / workload seed")
    chaos.add_argument("--rate", type=float, default=0.05,
                       help="(chaos) transient fault rate per operation")
    chaos.add_argument("--rounds", type=int, default=3,
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


def _run_chaos(args) -> int:
    from repro.harness.chaos import render_chaos, run_chaos

    report = run_chaos(
        seed=args.seed, transient_rate=args.rate, rounds=args.rounds
    )
    if args.json:
        path = args.output or pathlib.Path("CHAOS_report.json")
        path.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        text = render_chaos(report)
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
    if not report.identical:
        print("repro: chaos run diverged from fault-free baseline",
              file=sys.stderr)
        return 1
    return 0


#: Canonical location of the bench-pipeline JSON record.  There is
#: exactly one copy; override with ``-o/--output`` to write elsewhere.
BENCH_PIPELINE_JSON = pathlib.Path("benchmarks/results/BENCH_pipeline.json")

#: Canonical location of the bench-ingest JSON record.
BENCH_INGEST_JSON = pathlib.Path("benchmarks/results/BENCH_ingest.json")

#: Canonical location of the bench-insitu JSON record.
BENCH_INSITU_JSON = pathlib.Path("benchmarks/results/BENCH_insitu.json")

#: Canonical location of the bench-codec JSON record.
BENCH_CODEC_JSON = pathlib.Path("benchmarks/results/BENCH_codec.json")

#: Canonical location of the bench-serve JSON record.
BENCH_SERVE_JSON = pathlib.Path("benchmarks/results/BENCH_serve.json")

#: Canonical location of the bench-cluster JSON record.
BENCH_CLUSTER_JSON = pathlib.Path("benchmarks/results/BENCH_cluster.json")

#: Canonical location of the bench-lod JSON record.
BENCH_LOD_JSON = pathlib.Path("benchmarks/results/BENCH_lod.json")


def _run_bench_ingest(args) -> int:
    from repro.harness.benchingest import (
        render_ingest_bench,
        run_ingest_bench,
    )

    result = run_ingest_bench(
        natoms=args.natoms if args.natoms is not None else 4000,
        nframes=args.nframes if args.nframes is not None else 160,
        keyframe_interval=(
            args.keyframe_interval
            if args.keyframe_interval is not None else 8
        ),
        window_frames=args.window_frames,
        depth=args.depth,
        seed=args.seed if args.seed else 7,
        workers=args.workers,
        codec_backend=args.codec_backend,
    )
    if args.json:
        path = args.output or BENCH_INGEST_JSON
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        text = render_ingest_bench(result)
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
    if not result["pass"]:
        print("repro: bench-ingest below its floors", file=sys.stderr)
        return 1
    return 0


def _run_bench_insitu(args) -> int:
    from repro.harness.benchinsitu import (
        render_insitu_bench,
        run_insitu_bench,
    )

    result = run_insitu_bench(
        natoms=args.natoms if args.natoms is not None else 1000,
        nframes=args.nframes if args.nframes is not None else 160,
        keyframe_interval=(
            args.keyframe_interval
            if args.keyframe_interval is not None else 8
        ),
        window_frames=args.window_frames,
        depth=args.depth,
        seed=args.seed if args.seed else 7,
    )
    if args.json:
        path = args.output or BENCH_INSITU_JSON
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        text = render_insitu_bench(result)
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
    if not result["pass"]:
        print("repro: bench-insitu below its floors", file=sys.stderr)
        return 1
    return 0


def _run_bench_pipeline(args) -> int:
    from repro.harness.benchpipeline import (
        render_pipeline_bench,
        run_pipeline_bench,
    )

    result = run_pipeline_bench(
        nchunks=args.nchunks,
        frames_per_chunk=args.frames_per_chunk,
        window_chunks=args.window_chunks,
        seed=args.seed if args.seed else 7,
    )
    if args.json:
        path = args.output or BENCH_PIPELINE_JSON
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        text = render_pipeline_bench(result)
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
    if not result["pass"]:
        print("repro: bench-pipeline below its floors", file=sys.stderr)
        return 1
    return 0


def _run_bench_lod(args) -> int:
    from repro.core.lod import DEFAULT_LOD_PRECISION
    from repro.harness.benchlod import render_lod_bench, run_lod_bench

    result = run_lod_bench(
        natoms=args.natoms if args.natoms is not None else 1200,
        nchunks=args.nchunks,
        frames_per_chunk=args.frames_per_chunk,
        window_chunks=args.window_chunks,
        seed=args.seed if args.seed else 7,
        lod_precision=(
            args.lod_precision
            if args.lod_precision is not None else DEFAULT_LOD_PRECISION
        ),
        precision=args.precision,
    )
    if args.json:
        path = args.output or BENCH_LOD_JSON
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        text = render_lod_bench(result)
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
    if not result["pass"]:
        print("repro: bench-lod below its floors", file=sys.stderr)
        return 1
    return 0


def _run_bench_serve(args) -> int:
    from repro.harness.benchserve import (
        render_serve_bench,
        run_serve_bench,
    )

    result = run_serve_bench(
        ntenants=args.tenants,
        ndatasets=args.ndatasets,
        natoms=args.natoms if args.natoms is not None else 600,
        requests_per_tenant=args.requests_per_tenant,
        concurrency=args.concurrency,
        zipf_s=args.zipf,
        seed=args.seed if args.seed else 7,
    )
    if args.json:
        path = args.output or BENCH_SERVE_JSON
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        text = render_serve_bench(result)
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
    if not result["pass"]:
        print("repro: bench-serve below its floors", file=sys.stderr)
        return 1
    return 0


def _run_bench_cluster(args) -> int:
    from repro.harness.benchcluster import (
        render_cluster_bench,
        run_cluster_bench,
    )

    try:
        node_counts = tuple(
            int(part) for part in args.nodes.split(",") if part.strip()
        )
    except ValueError:
        print(f"repro: bad --nodes value {args.nodes!r}", file=sys.stderr)
        return 2
    result = run_cluster_bench(
        node_counts=node_counts,
        requests_per_tenant=args.requests_per_tenant,
        replicas=args.replicas,
        zipf_s=args.zipf,
        seed=args.seed if args.seed else 7,
    )
    if args.json:
        path = args.output or BENCH_CLUSTER_JSON
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        text = render_cluster_bench(result)
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
    if not result["pass"]:
        print("repro: bench-cluster below its floors", file=sys.stderr)
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
    from repro.harness.tracedemo import run_trace_demo

    ada, _ = run_trace_demo(seed=args.seed if args.seed else 11)
    if args.json:
        text = json.dumps(ada.metrics.to_json(), indent=2, sort_keys=True)
    else:
        text = ada.metrics.to_prometheus().rstrip("\n")
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _run_trace(args) -> int:
    """Render the trace-demo timelines (demand read overlapping prefetch)."""
    from repro.harness.tracedemo import run_trace_demo
    from repro.obs.trace import render_trace

    _, tracer = run_trace_demo(seed=args.seed if args.seed else 11)
    if args.json:
        text = tracer.to_json(logical=args.logical, tag=args.tag)
    else:
        roots = tracer.traces(logical=args.logical, tag=args.tag)
        text = render_trace(roots)
        if not text:
            text = "(no matching timelines)"
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _run_bench_codec(args) -> int:
    from repro.errors import CodecError
    from repro.harness.benchcodec import render_codec_bench, run_codec_bench

    try:
        result = run_codec_bench(
            natoms=args.natoms if args.natoms is not None else 8000,
            nframes=args.nframes if args.nframes is not None else 384,
            keyframe_interval=(
                args.keyframe_interval
                if args.keyframe_interval is not None else 12
            ),
            workers=args.workers,
            repeats=args.repeats,
            backend=args.codec_backend,
        )
    except CodecError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        path = args.output or BENCH_CODEC_JSON
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
    else:
        text = render_codec_bench(result)
        if args.output is not None:
            args.output.write_text(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
    if not result["pass"]:
        print("repro: bench-codec below its floors", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.target == "list":
        for name in sorted(GENERATORS):
            print(name)
        print("bench-codec")
        print("bench-cluster")
        print("bench-ingest")
        print("bench-insitu")
        print("bench-lod")
        print("bench-pipeline")
        print("bench-serve")
        print("chaos")
        print("metrics")
        print("trace")
        return 0
    if args.target == "bench-codec":
        return _run_bench_codec(args)
    if args.target == "bench-cluster":
        return _run_bench_cluster(args)
    if args.target == "bench-ingest":
        return _run_bench_ingest(args)
    if args.target == "bench-insitu":
        return _run_bench_insitu(args)
    if args.target == "bench-lod":
        return _run_bench_lod(args)
    if args.target == "bench-pipeline":
        return _run_bench_pipeline(args)
    if args.target == "bench-serve":
        return _run_bench_serve(args)
    if args.target == "chaos":
        return _run_chaos(args)
    if args.target == "metrics":
        return _run_metrics(args)
    if args.target == "trace":
        return _run_trace(args)
    if args.target == "all":
        directory = args.directory or pathlib.Path("results")
        directory.mkdir(parents=True, exist_ok=True)
        for name, gen in sorted(GENERATORS.items()):
            path = directory / f"{name}.txt"
            path.write_text(gen() + "\n")
            print(f"wrote {path}", file=sys.stderr)
        return 0
    text = GENERATORS[args.target]()
    if args.output is not None:
        args.output.write_text(text + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())

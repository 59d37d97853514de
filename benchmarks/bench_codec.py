"""Codec microbenchmarks: the substrate the whole paper leans on.

Measures real encode/decode throughput of the XTC-like codec and the raw
container, and verifies the compression ratio stays in the paper's band.
The decode rate is the physical analogue of the model's calibrated
``decompress_rate``.
"""

import pytest

from repro.formats import decode_xtc, encode_xtc
from repro.formats.xtc import decode_raw, encode_raw
from repro.units import to_mb


def test_bench_xtc_encode(benchmark, small_workload):
    blob = benchmark(encode_xtc, small_workload.trajectory)
    ratio = small_workload.raw_nbytes / len(blob)
    assert 2.5 < ratio < 5.0


def test_bench_xtc_decode(benchmark, small_workload):
    traj = benchmark(decode_xtc, small_workload.xtc_blob)
    assert traj.nframes == small_workload.trajectory.nframes


def test_bench_raw_encode(benchmark, small_workload):
    blob = benchmark(encode_raw, small_workload.trajectory)
    assert len(blob) > small_workload.raw_nbytes


def test_bench_raw_decode(benchmark, small_workload):
    blob = encode_raw(small_workload.trajectory)
    traj = benchmark(decode_raw, blob)
    assert traj.natoms == small_workload.trajectory.natoms


def test_decode_rate_report(artifact_sink, small_workload):
    """Record the real decode rate next to the model's calibrated one."""
    import time

    start = time.perf_counter()
    decode_xtc(small_workload.xtc_blob)
    elapsed = time.perf_counter() - start
    rate = to_mb(small_workload.raw_nbytes) / elapsed
    artifact_sink(
        "codec_rates.txt",
        f"real decode rate: {rate:.0f} MB/s of raw output\n"
        f"model decompress_rate (E5-2603v4): 90 MB/s\n"
        f"model decompress_rate (E7-4820v3): 45 MB/s",
    )
    assert rate > 20.0  # same order as the calibrated rates


def test_bench_codec_json_baseline(run_gate):
    """Emit BENCH_codec.json (schema v3) and hold every codec floor.

    The projected process-pool critical path must clear >= 3x decode /
    >= 2x encode at 8 workers, every worker count must be bit-identical
    to serial, and the vectorized kernels must stay >= 2x over the pre-PR
    bit-matrix kernel (measured on the all-deflate stream that kernel
    actually produced).  best-of-5 repeats keep scheduler noise out of
    the recorded baseline.
    """
    from repro.harness.benchcodec import FLOORS

    result = run_gate("bench-codec", repeats=5)
    assert result["schema_version"] == 3
    assert 2.5 < result["workload"]["compression_ratio"] < 5.0
    assert result["bit_identical"] is True
    assert result["baseline_ratio"] >= FLOORS["baseline_ratio"]
    speedup = result["parallel_speedup"]
    assert speedup["decode"] >= FLOORS["decode_parallel_speedup_8w"]
    assert speedup["encode"] >= FLOORS["encode_parallel_speedup_8w"]
    assert result["pass"] is True

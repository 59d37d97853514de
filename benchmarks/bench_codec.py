"""Codec microbenchmarks: the substrate the whole paper leans on.

Measures real encode/decode throughput of the XTC-like codec and the raw
container, and verifies the compression ratio stays in the paper's band.
The decode rate is the physical analogue of the model's calibrated
``decompress_rate``.
"""

import time

import numpy as np
import pytest

from repro.formats import decode_xtc, encode_xtc
from repro.formats.xtc import _pack_words, decode_raw, encode_raw
from repro.units import to_mb
from tests.formats import encode_reference


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


#: Word width -> minimum frozen / live ``_pack_words`` speed-up on one full
#: block.  3 and 7 are odd widths whose period fits one 64-bit word
#: (P-frame deltas at the LOD and the full precision), 10 an even width
#: with a five-byte period, 13 an odd width whose period takes two words
#: (I-frame deltas): the shapes the per-lane, per-byte kernel was slowest at.
PACK_FLOORS = {3: 2.0, 7: 2.0, 10: 2.0, 13: 2.0}


def _best_us(fn, values, nbits, repeats=200):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(values, nbits)
        best = min(best, time.perf_counter() - t0)
    return best * 1e6


def test_bench_pack_kernel(artifact_sink):
    """Wall-clock micro-gate: the period-word bit-pack vs. the frozen
    per-lane kernel it replaced (best of N, same process, same values)."""
    rng = np.random.default_rng(20)
    rows = []
    for nbits, floor in PACK_FLOORS.items():
        values = rng.integers(0, 1 << nbits, size=8192, dtype=np.uint64)
        want = encode_reference.pack_words(values, nbits)
        assert _pack_words(values, nbits) == want
        frozen = _best_us(encode_reference.pack_words, values, nbits)
        live = _best_us(_pack_words, values, nbits)
        rows.append((nbits, frozen, live, frozen / live, floor))
    artifact_sink(
        "pack_kernel.txt",
        "\n".join(
            ["width  per-lane us/block  period-word us/block  speed-up  floor"]
            + [
                f"{nbits:5d}  {frozen:17.1f}  {live:20.1f}  {ratio:7.1f}x"
                f"  {floor:4.1f}x"
                for nbits, frozen, live, ratio, floor in rows
            ]
        ),
    )
    for nbits, _, _, ratio, floor in rows:
        assert ratio >= floor, f"width {nbits}: {ratio:.1f}x < {floor}x"


def test_bench_codec_json_baseline(run_gate):
    """Emit BENCH_codec.json (schema v4) and hold every row of its gate.

    The stream must keep its compression ratio (a byte count, not wall
    clock), and the vectorized serial decoder must stay >= 2x over the
    pre-PR bit-matrix kernel (measured on the all-deflate stream that
    kernel actually produced).  best-of-5 repeats keep scheduler noise out
    of the recorded baseline.
    """
    result = run_gate("bench-codec", repeats=5)
    assert result["schema_version"] == 4

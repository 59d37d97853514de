"""Streaming ingest benchmark: serial vs. write-behind pipelined ingest.

Ingests one GOF-chunked trajectory stream into the rotating tier under
the serial windowed baseline, the overlapped-but-uncoalesced pipeline,
and the full pipeline with coalesced chunk-run writes, and records the
canonical ``benchmarks/results/BENCH_ingest.json``.
Durations are simulated seconds, so the floor (pipelined >= 2x over the
serial schedule) holds deterministically, and the stored bytes -- chunk
paths, CRCs, index records -- must be identical across all three paths.
"""

from repro.harness.benchingest import BUFFER_WATERMARK, FLOORS


def test_bench_ingest_json_floors(run_gate):
    """Emit BENCH_ingest.json and hold the streaming-ingest floors."""
    result = run_gate("bench-ingest")
    assert result["schema_version"] == 1
    assert result["identical"], "pipelined ingest changed the stored bytes"
    speedups = result["speedup_vs_serial"]
    assert speedups["pipelined"] >= FLOORS["pipelined_vs_serial"]
    # Overlap alone already wins; coalescing stacks on top of it.
    assert speedups["pipelined_uncoalesced"] > 1.0
    assert speedups["pipelined"] > speedups["pipelined_uncoalesced"]
    # The O(window x depth) memory claim: bounded write-behind buffer.
    assert result["buffer_bounded"]
    for name in ("pipelined", "pipelined_uncoalesced"):
        assert (
            result["scenarios"][name]["buffered_bytes_peak"]
            <= BUFFER_WATERMARK
        )
    # The pipeline overlapped most of the CPU work with dispatch.
    assert result["scenarios"]["pipelined"]["overlap_ratio"] >= 0.5
    assert result["pass"]

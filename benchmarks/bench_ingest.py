"""Streaming ingest benchmark: serial vs. write-behind pipelined ingest.

Ingests one GOF-chunked trajectory stream into the rotating tier under
the serial windowed baseline, the overlapped-but-uncoalesced pipeline,
and the full pipeline with coalesced chunk-run writes, and records the
canonical ``benchmarks/results/BENCH_ingest.json``.
Durations are simulated seconds, so the floor (pipelined >= 2x over the
serial schedule) holds deterministically, and the stored bytes -- chunk
paths, CRCs, index records -- must be identical across all three paths.
"""


def test_bench_ingest_json_floors(run_gate):
    """Emit BENCH_ingest.json and hold every row of its gate."""
    result = run_gate("bench-ingest")
    assert result["schema_version"] == 1

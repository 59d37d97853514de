"""Multi-tenant serving benchmark: fairness and tail latency gates.

Drives eight closed-loop tenants (plus an open-loop Poisson scenario)
through the :class:`~repro.serve.ServeFront` over one shared cached
deployment, and records the canonical
``benchmarks/results/BENCH_serve.json``.
Durations are simulated seconds, so the floors (Jain fairness >= 0.9
over per-tenant served bytes, contended p99 within 8x the uncontended
baseline) hold deterministically.
"""


def test_bench_serve_json_floors(run_gate):
    """Emit BENCH_serve.json and hold every row of its gate."""
    result = run_gate("bench-serve")
    assert result["schema_version"] == 1

"""Multi-tenant serving benchmark: fairness and tail latency gates.

Drives eight closed-loop tenants (plus an open-loop Poisson scenario)
through the :class:`~repro.serve.ServeFront` over one shared cached
deployment, and records the canonical
``benchmarks/results/BENCH_serve.json``.
Durations are simulated seconds, so the floors (Jain fairness >= 0.9
over per-tenant served bytes, contended p99 within 8x the uncontended
baseline) hold deterministically.
"""

from repro.harness.benchserve import FLOORS


def test_bench_serve_json_floors(run_gate):
    """Emit BENCH_serve.json and hold the fairness/latency floors."""
    result = run_gate("bench-serve")
    assert result["schema_version"] == 1
    assert result["all_completed"], "contended run dropped requests"
    assert result["fairness"]["jain_contended"] >= FLOORS["jain_fairness"]
    assert (
        result["latency"]["p99_slowdown_vs_solo"]
        <= FLOORS["p99_slowdown_vs_solo"]
    )
    # Admission control is load-bearing: the open loop overruns the
    # per-tenant in-flight cap and the gate actually rejects work.
    assert result["scenarios"]["open_loop"]["rejected"] > 0
    assert result["pass"]

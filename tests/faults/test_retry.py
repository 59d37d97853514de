"""RetryPolicy / Retrier unit tests: deterministic backoff, timeouts,
fail-fast, and classification."""

import pytest

from repro.errors import (
    ConfigurationError,
    CorruptionError,
    FaultTimeoutError,
    PermanentFaultError,
    RetryExhaustedError,
    TransientFaultError,
)
from repro.faults import Retrier, RetryPolicy, RetryStats
from repro.sim import Simulator


def _flaky(failures, value="ok", exc_type=TransientFaultError):
    """Op factory failing ``failures`` times, then succeeding."""
    state = {"left": failures}

    def factory():
        def op():
            if state["left"] > 0:
                state["left"] -= 1
                raise exc_type("injected")
            return value
            yield  # pragma: no cover - makes this a generator

        return op()

    return factory


# -- deterministic backoff ---------------------------------------------------


def test_schedule_reproducible_for_fixed_seed():
    a = RetryPolicy(seed=7, max_retries=5).schedule("read:x")
    b = RetryPolicy(seed=7, max_retries=5).schedule("read:x")
    assert a == b
    assert len(a) == 5


def test_schedule_decorrelated_across_keys_and_seeds():
    base = RetryPolicy(seed=7, max_retries=5)
    assert base.schedule("read:x") != base.schedule("read:y")
    assert base.schedule("read:x") != RetryPolicy(seed=8, max_retries=5).schedule("read:x")


def test_backoff_grows_exponentially_within_jitter():
    policy = RetryPolicy(
        seed=0, backoff_base_s=1e-3, backoff_factor=2.0,
        backoff_cap_s=1.0, jitter_frac=0.25, max_retries=6,
    )
    for attempt in range(6):
        raw = 1e-3 * 2.0**attempt
        d = policy.delay_s(attempt, "k")
        assert raw * 0.875 <= d <= raw * 1.125


def test_backoff_cap_and_zero_jitter_exact():
    policy = RetryPolicy(
        backoff_base_s=1e-3, backoff_factor=10.0, backoff_cap_s=5e-3,
        jitter_frac=0.0,
    )
    assert policy.delay_s(0) == 1e-3
    assert policy.delay_s(1) == 5e-3  # capped from 10e-3
    assert policy.delay_s(7) == 5e-3


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_retries=-1)
    with pytest.raises(ConfigurationError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ConfigurationError):
        RetryPolicy(jitter_frac=2.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy(timeout_s=0.0)
    with pytest.raises(ConfigurationError):
        RetryPolicy().delay_s(-1)


# -- retrier behaviour --------------------------------------------------------


def _count(retrier, field):
    """One ``retry_<field>_total`` series of the retrier's registry."""
    return retrier.stats.metrics.value(f"retry_{field}_total")


def test_success_without_faults_costs_no_sim_time():
    sim = Simulator()
    retrier = Retrier(sim)
    result = sim.run_process(retrier.call(_flaky(0), key="op"))
    assert result == "ok"
    assert sim.now == 0.0
    assert _count(retrier, "attempts") == 1
    assert _count(retrier, "retries") == 0
    assert _count(retrier, "recovered") == 0


def test_recovers_after_transient_failures_with_exact_backoff():
    sim = Simulator()
    policy = RetryPolicy(seed=3, max_retries=4)
    retrier = Retrier(sim, policy)
    result = sim.run_process(retrier.call(_flaky(3), key="k"))
    assert result == "ok"
    expected = sum(policy.delay_s(a, "k") for a in range(3))
    assert sim.now == pytest.approx(expected)
    assert _count(retrier, "attempts") == 4
    assert _count(retrier, "retries") == 3
    assert _count(retrier, "recovered") == 1
    assert _count(retrier, "transient_faults") == 3
    assert _count(retrier, "backoff_s") == pytest.approx(expected)


def test_zero_retries_fails_fast_without_backoff():
    sim = Simulator()
    retrier = Retrier(sim, RetryPolicy.no_retries())
    with pytest.raises(RetryExhaustedError):
        sim.run_process(retrier.call(_flaky(1), key="k"))
    assert sim.now == 0.0  # no backoff was paid
    assert _count(retrier, "attempts") == 1
    assert _count(retrier, "exhausted") == 1


def test_exhaustion_wraps_last_transient_as_cause():
    sim = Simulator()
    retrier = Retrier(sim, RetryPolicy(max_retries=2, seed=1))
    with pytest.raises(RetryExhaustedError) as excinfo:
        sim.run_process(retrier.call(_flaky(99), key="k"))
    assert isinstance(excinfo.value.__cause__, TransientFaultError)
    assert isinstance(excinfo.value, PermanentFaultError)  # typed: final
    assert _count(retrier, "attempts") == 3
    assert _count(retrier, "exhausted") == 1


def test_permanent_fault_never_retried():
    sim = Simulator()
    retrier = Retrier(sim, RetryPolicy(max_retries=5))
    with pytest.raises(PermanentFaultError):
        sim.run_process(
            retrier.call(_flaky(1, exc_type=PermanentFaultError), key="k")
        )
    assert sim.now == 0.0
    assert _count(retrier, "attempts") == 1
    assert _count(retrier, "permanent_failures") == 1
    assert _count(retrier, "retries") == 0


def test_corruption_counted_separately():
    sim = Simulator()
    retrier = Retrier(sim, RetryPolicy(max_retries=3, seed=2))
    result = sim.run_process(
        retrier.call(_flaky(2, exc_type=CorruptionError), key="k")
    )
    assert result == "ok"
    assert _count(retrier, "corruption_detected") == 2
    assert _count(retrier, "transient_faults") == 2


def test_non_fault_errors_propagate_untouched():
    class NotOurs(ValueError):
        pass

    sim = Simulator()
    retrier = Retrier(sim, RetryPolicy(max_retries=5))
    with pytest.raises(NotOurs):
        sim.run_process(retrier.call(_flaky(1, exc_type=NotOurs), key="k"))
    assert _count(retrier, "attempts") == 1
    assert _count(retrier, "transient_faults") == 0


# -- per-op timeout ----------------------------------------------------------


def _never_completes(sim):
    def factory():
        def op():
            yield sim.event()  # never triggered

        return op()

    return factory


def test_timeout_fires_on_never_completing_op():
    sim = Simulator()
    timeout_s = 0.25
    retrier = Retrier(
        sim, RetryPolicy.no_retries(timeout_s=timeout_s)
    )
    with pytest.raises(RetryExhaustedError) as excinfo:
        sim.run_process(retrier.call(_never_completes(sim), key="k"))
    assert isinstance(excinfo.value.__cause__, FaultTimeoutError)
    assert sim.now == pytest.approx(timeout_s)
    assert _count(retrier, "timeouts") == 1


def test_timeout_then_retry_then_exhaust():
    sim = Simulator()
    policy = RetryPolicy(max_retries=1, timeout_s=0.1, seed=4)
    retrier = Retrier(sim, policy)
    with pytest.raises(RetryExhaustedError):
        sim.run_process(retrier.call(_never_completes(sim), key="k"))
    expected = 0.1 + policy.delay_s(0, "k") + 0.1
    assert sim.now == pytest.approx(expected)
    assert _count(retrier, "timeouts") == 2
    assert _count(retrier, "attempts") == 2


def test_fast_op_beats_timeout():
    sim = Simulator()
    retrier = Retrier(sim, RetryPolicy(timeout_s=1.0))

    def op():
        yield sim.timeout(0.01)
        return "fast"

    result = sim.run_process(retrier.call(lambda: op(), key="k"))
    assert result == "fast"
    assert sim.now == pytest.approx(0.01)
    assert _count(retrier, "timeouts") == 0


def test_shared_stats_across_retriers():
    sim = Simulator()
    stats = RetryStats()
    r1 = Retrier(sim, RetryPolicy(seed=1), stats)
    r2 = Retrier(sim, RetryPolicy(seed=1), stats)
    sim.run_process(r1.call(_flaky(1), key="a"))
    sim.run_process(r2.call(_flaky(1), key="b"))
    assert stats.metrics.value("retry_attempts_total") == 4
    assert stats.metrics.value("retry_recovered_total") == 2
    assert len(stats.metrics.query("retry_")) == 9

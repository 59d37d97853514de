"""RetryPolicy / Retrier unit tests: deterministic backoff, fail-fast, and
classification."""

import pytest

from repro.errors import (
    ConfigurationError,
    CorruptionError,
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


def _delays(policy, key):
    return [policy.delay_s(attempt, key) for attempt in range(5)]


def test_schedule_reproducible_for_fixed_seed():
    a = _delays(RetryPolicy(seed=7), "read:x")
    b = _delays(RetryPolicy(seed=7), "read:x")
    assert a == b
    assert len(set(a)) == 5


def test_schedule_decorrelated_across_keys_and_seeds():
    base = RetryPolicy(seed=7)
    assert _delays(base, "read:x") != _delays(base, "read:y")
    assert _delays(base, "read:x") != _delays(RetryPolicy(seed=8), "read:x")


def test_backoff_grows_exponentially_within_jitter():
    policy = RetryPolicy(seed=0, max_retries=6)
    for attempt in range(6):
        raw = 1e-3 * 2.0**attempt
        d = policy.delay_s(attempt, "k")
        assert raw * 0.875 <= d <= raw * 1.125


def test_backoff_cap_binds_within_jitter():
    policy = RetryPolicy(seed=0)
    assert policy.delay_s(8, "k") <= 0.256 * 1.125  # 1 ms * 2**8, uncapped
    for attempt in range(9, 16):  # 1 ms * 2**9 = 0.512 s > the 0.5 s cap
        assert 0.5 * 0.875 <= policy.delay_s(attempt, "k") <= 0.5 * 1.125


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        RetryPolicy(max_retries=-1)
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
    retrier = Retrier(sim, RetryPolicy(max_retries=0))
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


def test_shared_stats_across_retriers():
    sim = Simulator()
    stats = RetryStats()
    r1 = Retrier(sim, RetryPolicy(seed=1), stats)
    r2 = Retrier(sim, RetryPolicy(seed=1), stats)
    sim.run_process(r1.call(_flaky(1), key="a"))
    sim.run_process(r2.call(_flaky(1), key="b"))
    assert stats.metrics.value("retry_attempts_total") == 4
    assert stats.metrics.value("retry_recovered_total") == 2
    assert len(stats.metrics.query("retry_")) == 8

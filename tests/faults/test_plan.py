"""FaultPlan unit tests: determinism, decision streams, payload effects."""

import pytest

from repro.errors import (
    ConfigurationError,
    PermanentFaultError,
    TransientFaultError,
)
from repro.faults import (
    CLEAN,
    PERMANENT,
    TRANSIENT,
    FaultPlan,
    FaultSpec,
    raise_fault,
)


def _decisions(plan, site="fs:ssd", op="read", n=200):
    return [plan.decide(site, op) for _ in range(n)]


def test_same_seed_same_schedule():
    spec = FaultSpec(transient_rate=0.2, corruption_rate=0.1, latency_rate=0.1)
    a = _decisions(FaultPlan(seed=42, default=spec))
    b = _decisions(FaultPlan(seed=42, default=spec))
    assert a == b


def test_different_seeds_differ():
    spec = FaultSpec(transient_rate=0.2, corruption_rate=0.1, latency_rate=0.1)
    a = _decisions(FaultPlan(seed=1, default=spec))
    b = _decisions(FaultPlan(seed=2, default=spec))
    assert a != b


def test_sites_have_independent_streams():
    spec = FaultSpec(transient_rate=0.3)
    plan = FaultPlan(seed=5, default=spec)
    a = [plan.decide("fs:ssd", "read") for _ in range(100)]
    b = [plan.decide("fs:hdd", "read") for _ in range(100)]
    assert a != b


def test_quiet_spec_always_clean():
    plan = FaultPlan(seed=9)  # default FaultSpec() is all-zero
    assert all(d is CLEAN for d in _decisions(plan))
    assert plan.total() == 0
    assert plan.decisions == 200


def test_rates_roughly_respected():
    plan = FaultPlan(seed=11, default=FaultSpec(transient_rate=0.5))
    errors = sum(1 for d in _decisions(plan, n=1000) if d.error == TRANSIENT)
    assert 380 <= errors <= 620  # ~p=0.5, 1000 draws


def test_permanent_takes_precedence():
    plan = FaultPlan(
        seed=1, default=FaultSpec(transient_rate=1.0, permanent_rate=1.0)
    )
    assert all(d.error == PERMANENT for d in _decisions(plan, n=20))


def test_site_pattern_override_first_match_wins():
    loud = FaultSpec(permanent_rate=1.0)
    quiet = FaultSpec()
    plan = FaultPlan(seed=0, sites={"fs:hdd*": loud, "fs:*": quiet})
    assert plan.spec_for("fs:hdd-0") is loud
    assert plan.spec_for("fs:ssd") is quiet
    assert plan.spec_for("dev:other") is plan.default


def test_corrupt_payload_flips_exactly_one_bit():
    plan = FaultPlan(seed=13)
    data = bytes(range(64))
    mutated = plan.corrupt_payload("fs:x", "read", data)
    assert len(mutated) == len(data)
    diff = [(a ^ b) for a, b in zip(data, mutated) if a != b]
    assert len(diff) == 1 and bin(diff[0]).count("1") == 1
    assert plan.injected[("fs:x", "corruption")] == 1


def test_corrupt_payload_empty_passthrough():
    plan = FaultPlan(seed=13)
    assert plan.corrupt_payload("fs:x", "read", b"") == b""


def test_short_length_strictly_shorter():
    plan = FaultPlan(seed=17)
    for n in (1, 2, 7, 4096):
        assert 0 <= plan.short_length("fs:x", "read", n) < n
    assert plan.short_length("fs:x", "read", 0) == 0


def test_rate_validation():
    with pytest.raises(ConfigurationError):
        FaultSpec(transient_rate=1.5)
    with pytest.raises(ConfigurationError):
        FaultSpec(corruption_rate=-0.1)
    with pytest.raises(ConfigurationError):
        FaultSpec(latency_spike_s=-1.0)


def test_raise_fault_types():
    with pytest.raises(TransientFaultError):
        raise_fault(TRANSIENT, "fs:x", "read", "obj")
    with pytest.raises(PermanentFaultError):
        raise_fault(PERMANENT, "dev:y", "write")


def test_transient_only_factory_has_no_permanent():
    plan = FaultPlan.transient_only(seed=3, rate=0.2)
    spec = plan.spec_for("anything")
    assert spec.permanent_rate == 0.0
    assert spec.transient_rate == 0.2
    assert spec.is_quiet is False
    assert FaultSpec().is_quiet is True


def test_snapshot_and_total_accounting():
    plan = FaultPlan(
        seed=2, default=FaultSpec(transient_rate=1.0, latency_rate=1.0)
    )
    plan.decide("fs:a", "read")
    plan.decide("fs:b", "write")
    snap = plan.snapshot()
    assert snap["fs:a:transient"] == 1
    assert snap["fs:b:latency"] == 1
    assert plan.total("transient") == 2
    assert plan.total() == 4  # 2 transient + 2 latency

"""Measure line coverage of ``repro.faults`` with the stdlib ``trace`` module.

Run as a script (``python tests/faults/_coverage_driver.py`` with
``PYTHONPATH=src``); prints a JSON report mapping each module file to its
executable line count, executed line count, ratio, and missed lines.

The environment ships no coverage.py, so this measures the old-fashioned
way: the fault modules are purged from ``sys.modules`` and re-imported
*inside* the traced exercise function (so module-level lines count), then
executed lines from the tracer are compared against the executable lines
each code object reports via ``co_lines()``.
"""

import json
import os
import sys
import trace


def _exercise() -> None:
    """Touch every public behaviour and error branch of repro.faults."""
    for name in [m for m in sys.modules if m.startswith("repro.faults")]:
        del sys.modules[name]

    from repro.errors import (
        ConfigurationError,
        CorruptionError,
        PermanentFaultError,
        RetryExhaustedError,
        TransientFaultError,
    )
    from repro.faults import (
        CLEAN,
        PERMANENT,
        TRANSIENT,
        FaultPlan,
        FaultSite,
        FaultSpec,
        Retrier,
        RetryPolicy,
        RetryStats,
        raise_fault,
    )
    from repro.sim import Simulator

    def expect(exc_type, fn):
        try:
            fn()
        except exc_type:
            return
        raise AssertionError(f"expected {exc_type.__name__}")

    # -- FaultSpec -----------------------------------------------------------
    expect(ConfigurationError, lambda: FaultSpec(transient_rate=1.5))
    expect(ConfigurationError, lambda: FaultSpec(latency_spike_s=-1.0))
    spec = FaultSpec(transient_rate=0.5, latency_rate=0.5)
    assert not spec.is_quiet and FaultSpec().is_quiet
    expect(PermanentFaultError, lambda: raise_fault(PERMANENT, "s", "op"))
    expect(TransientFaultError, lambda: raise_fault(TRANSIENT, "s", "op", "x"))

    # -- FaultPlan streams, payload effects, accounting ----------------------
    plan = FaultPlan(
        seed=3,
        default=FaultSpec(),
        sites={"fs:*": FaultSpec(transient_rate=1.0, latency_rate=1.0)},
    )
    assert plan.spec_for("fs:ssd").transient_rate == 1.0
    assert plan.spec_for("dev:hdd").is_quiet
    assert plan.decide("dev:hdd", "read") is CLEAN
    decision = plan.decide("fs:ssd", "read")
    assert decision.error == TRANSIENT and decision.latency_s > 0
    loud = FaultPlan(seed=1, default=FaultSpec(permanent_rate=1.0))
    assert loud.decide("any", "write").error == PERMANENT
    assert plan.corrupt_payload("fs:ssd", "read", b"") == b""
    assert plan.corrupt_payload("fs:ssd", "read", b"abc") != b"abc"
    assert plan.short_length("fs:ssd", "read", 0) == 0
    assert plan.short_length("fs:ssd", "read", 10) < 10
    assert plan.total() == plan.total("latency") + plan.total(TRANSIENT) + (
        plan.total("corruption") + plan.total("short_read")
    )
    assert plan.snapshot() and repr(plan)

    # -- factories and attachment --------------------------------------------
    FaultPlan.transient_only(seed=2, rate=0.1).decide("fs:a", "read")

    class Sink:
        def __init__(self, device=None, targets=(), link=None):
            self.plans, self.device, self.targets, self.link = (
                [], device, targets, link,
            )

        def attach_faults(self, p):
            self.plans.append(p)

    class Target:
        def __init__(self):
            self.device, self.link = Sink(), Sink()

    sink = Sink()
    plan.attach(sink)
    local_fs = Sink(device=Sink())
    striped_fs = Sink(targets=[Target()])

    class FakePlfs:
        backends = {"a": local_fs, "b": striped_fs}

    class FakeAda:
        plfs = FakePlfs()

        def members(self):
            return [self]

    plan.attach_to(FakeAda())
    assert sink.plans and local_fs.device.plans
    assert striped_fs.targets[0].link.plans

    # -- the shared hardware gate ---------------------------------------------
    class Part(FaultSite):
        site_kind = "fs"

        def __init__(self, sim):
            self.sim, self.name = sim, "ssd"

    sim = Simulator()
    part = Part(sim)
    assert sim.run_process(part._fault_gate("read")) is None
    assert part.attach_faults(plan) is part and part.fault_site == "fs:ssd"
    expect(
        TransientFaultError,
        lambda: sim.run_process(part._fault_gate("read", "obj")),
    )
    assert sim.now > 0  # the latency spike was paid before the error
    part.attach_faults(FaultPlan(seed=3))
    assert sim.run_process(part._fault_gate("read")) is CLEAN

    # -- RetryPolicy ---------------------------------------------------------
    expect(ConfigurationError, lambda: RetryPolicy(max_retries=-1))
    policy = RetryPolicy(max_retries=3, seed=5)
    expect(ConfigurationError, lambda: policy.delay_s(-1))
    assert policy.delay_s(2, "k") > policy.delay_s(0, "k")
    stats = RetryStats()
    assert stats.metrics.value("retry_attempts_total") == 0

    # -- Retrier: every outcome class ----------------------------------------
    def flaky(failures, exc_type=TransientFaultError, value="ok"):
        state = {"left": failures}

        def op():
            if state["left"] > 0:
                state["left"] -= 1
                raise exc_type("injected")
            return value
            yield  # pragma: no cover - marks this as a generator

        return op

    sim = Simulator()
    retrier = Retrier(sim, policy=RetryPolicy(max_retries=3, seed=5))
    assert sim.run_process(retrier.call(flaky(0), "clean")) == "ok"
    assert sim.run_process(retrier.call(flaky(2), "flaky")) == "ok"
    expect(
        PermanentFaultError,
        lambda: sim.run_process(
            retrier.call(flaky(1, PermanentFaultError), "dead")
        ),
    )
    expect(
        RetryExhaustedError,
        lambda: sim.run_process(
            retrier.call(flaky(99, CorruptionError), "corrupt")
        ),
    )
    assert retrier.stats.metrics.value("retry_recovered_total") == 1
    assert retrier.stats.metrics.value(
        "retry_corruption_detected_total"
    ) >= 1


def _executable_lines(path: str) -> set:
    """Every line that carries at least one instruction, per ``co_lines``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    lines = set()
    stack = [compile(source, path, "exec")]
    while stack:
        code = stack.pop()
        for _, _, lineno in code.co_lines():
            # lineno 0 is the module RESUME pseudo-line, not source.
            if lineno:
                lines.add(lineno)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main() -> int:
    import repro.faults

    package_dir = os.path.dirname(os.path.abspath(repro.faults.__file__))
    tracer = trace.Trace(count=1, trace=0)
    tracer.runfunc(_exercise)
    counts = tracer.results().counts

    report = {}
    for entry in sorted(os.listdir(package_dir)):
        if not entry.endswith(".py"):
            continue
        path = os.path.join(package_dir, entry)
        executable = _executable_lines(path)
        executed = {
            lineno
            for (filename, lineno), hits in counts.items()
            if hits and os.path.abspath(filename) == path
        } & executable
        report[entry] = {
            "executable": len(executable),
            "executed": len(executed),
            "ratio": len(executed) / len(executable) if executable else 1.0,
            "missed": sorted(executable - executed),
        }
    json.dump(report, sys.stdout, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())

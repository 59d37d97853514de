"""Chaos properties over the full ADA pipeline.

Two regimes, per the fault model's classification contract:

* **transient-only** injection with retries enabled must be invisible to
  the application: ingest + tag-selective reads produce bytes identical
  to a fault-free run (property-swept over seeds);
* **permanent** faults must surface as a typed error or a *documented*
  degraded result (inactive tier dropped, warning raised) -- never a hang
  and never silently wrong data.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ADA
from repro.errors import (
    DegradedReadWarning,
    PermanentFaultError,
)
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.fs import LocalFS
from repro.harness.chaos import run_chaos
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, mbps
from repro.workloads import build_workload

pytestmark = pytest.mark.chaos


def _fs(sim, name):
    spec = DeviceSpec(
        name=name,
        read_bw=mbps(1000),
        write_bw=mbps(1000),
        seek_latency_s=0.0,
        capacity=100 * GB,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )
    return LocalFS(sim, spec, name=name, metadata_latency_s=0.0)


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=800, nframes=4, seed=19)


def _ingested_ada(workload, retry_policy=None):
    """An ADA with one dataset ingested fault-free (faults attach later)."""
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": _fs(sim, "ssd"), "hdd": _fs(sim, "hdd")},
        retry_policy=retry_policy,
    )
    sim.run_process(ada.ingest("bar.xtc", workload.pdb_text, workload.xtc_blob))
    return sim, ada


# -- acceptance criterion ----------------------------------------------------


def test_transient_chaos_is_bit_identical_with_retries():
    """ISSUE acceptance: >= 5% transient rate, bit-identical, retries > 0."""
    report = run_chaos(seed=7, transient_rate=0.05, rounds=3)
    assert report["identical"] and report["pass"], (
        f"faulted digest {report['faulted_digest']} != "
        f"baseline {report['baseline_digest']}"
    )
    counters = report["counters"]
    assert counters["retry_retries_total"] > 0  # recovery work was counted
    assert report["injected_total"] > 0
    assert counters["retry_permanent_failures_total"] == 0
    assert report["degraded_reads"] == 0


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_transient_chaos_sweep(seed):
    """Property: any seed's transient-only run recovers bit-identically."""
    report = run_chaos(
        seed=seed, transient_rate=0.08, rounds=2, natoms=400, nframes=3
    )
    assert report["identical"]
    assert report["counters"]["retry_exhausted_total"] == 0


def test_run_chaos_is_deterministic():
    a = run_chaos(seed=21, transient_rate=0.06, rounds=2, natoms=400, nframes=3)
    b = run_chaos(seed=21, transient_rate=0.06, rounds=2, natoms=400, nframes=3)
    assert a == b


def test_high_rate_chaos_still_recovers():
    """A punishing 20% rate still converges with a deep retry budget."""
    report = run_chaos(
        seed=5, transient_rate=0.20, rounds=2, natoms=400, nframes=3,
        max_retries=12,
    )
    assert report["identical"]
    assert report["counters"]["retry_retries_total"] >= 1


# -- permanent faults: typed errors or documented degradation ---------------


def test_inactive_tier_permanent_failure_degrades_with_warning(workload):
    sim, ada = _ingested_ada(workload)
    FaultPlan(
        seed=1, sites={"fs:hdd": FaultSpec(permanent_rate=1.0)}
    ).attach(ada.plfs.backends["hdd"])
    with pytest.warns(DegradedReadWarning):
        objs = sim.run_process(ada.fetch_all("bar.xtc"))
    # Active-tier protein data still loads; the MISC subset is dropped.
    assert "p" in objs and objs["p"].data is not None
    assert "m" not in objs
    assert ada.degraded and ada.degraded[0][:2] == ("bar.xtc", "m")
    assert len(ada.degraded) == 1
    assert ada.metrics.value("retry_permanent_failures_total") >= 1


def test_active_tier_permanent_failure_raises(workload):
    sim, ada = _ingested_ada(workload)
    FaultPlan(
        seed=1, sites={"fs:ssd": FaultSpec(permanent_rate=1.0)}
    ).attach(ada.plfs.backends["ssd"])
    with pytest.raises(PermanentFaultError):
        sim.run_process(ada.fetch_all("bar.xtc"))
    assert not ada.degraded  # active-tier loss is never a degraded success


def test_explicit_tag_fetch_never_degrades(workload):
    sim, ada = _ingested_ada(workload)
    FaultPlan(
        seed=1, sites={"fs:hdd": FaultSpec(permanent_rate=1.0)}
    ).attach(ada.plfs.backends["hdd"])
    with pytest.raises(PermanentFaultError):
        sim.run_process(ada.fetch("bar.xtc", "m"))


def test_fetch_merged_refuses_degraded_dataset(workload):
    sim, ada = _ingested_ada(workload)
    FaultPlan(
        seed=1, sites={"fs:hdd": FaultSpec(permanent_rate=1.0)}
    ).attach(ada.plfs.backends["hdd"])
    with pytest.raises(PermanentFaultError):
        sim.run_process(ada.fetch_merged("bar.xtc"))


def test_exhausted_transient_retries_degrade_like_permanent(workload):
    """A tier that fails every retry is as dead as a permanent fault."""
    sim, ada = _ingested_ada(
        workload, retry_policy=RetryPolicy(max_retries=2, seed=0)
    )
    FaultPlan(
        seed=2, sites={"fs:hdd": FaultSpec(transient_rate=1.0)}
    ).attach(ada.plfs.backends["hdd"])
    with pytest.warns(DegradedReadWarning):
        objs = sim.run_process(ada.fetch_all("bar.xtc"))
    assert "p" in objs and "m" not in objs
    assert ada.metrics.value("retry_exhausted_total") >= 1
    assert len(ada.degraded) == 1


def test_degradation_disabled_raises_instead(workload):
    sim, ada = _ingested_ada(workload)
    FaultPlan(
        seed=1, sites={"fs:hdd": FaultSpec(permanent_rate=1.0)}
    ).attach(ada.plfs.backends["hdd"])
    with pytest.raises(PermanentFaultError):
        sim.run_process(ada.fetch_all("bar.xtc", allow_degraded=False))


def test_fault_counters_surface_in_stats(workload):
    sim, ada = _ingested_ada(workload)
    assert ada.metrics.value("retry_attempts_total") >= 1
    assert ada.degraded == []

"""Chaos properties over the multi-tenant serving layer.

One tenant's device misbehaves (transient errors plus latency spikes at
its ``serve:<tenant>`` fault site); the properties are:

* the *faulty* tenant recovers -- bounded retries absorb the transients
  and every request still completes with the right bytes;
* the *other* tenants barely notice -- their p99 stays within 2x the
  fault-free contended run, because retries burn only the faulty
  tenant's concurrency slot and WFQ share;
* isolation survives chaos -- every tenant's digest is bit-identical to
  the fault-free run.
"""

import pytest

from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog, run_traffic
from repro.harness.benchserve import build_front
from repro.serve import DatasetRef, TrafficConfig

pytestmark = [pytest.mark.chaos, pytest.mark.serve]

_WORKLOAD = dict(ndatasets=2, natoms=200, nchunks=8, frames_per_chunk=4, seed=9)
_NTENANTS = 4
_REQUESTS = 12

#: Noisy but survivable: one in five requests errors once, nearly one in
#: three pays a 5 ms spike (several times the clean service time).
_FAULTY_TENANT = "t0"
_SPEC = FaultSpec(transient_rate=0.2, latency_rate=0.3, latency_spike_s=5e-3)


@pytest.fixture(scope="module")
def runs():
    blobs = chunked_catalog(
        _WORKLOAD["ndatasets"], _WORKLOAD["natoms"], _WORKLOAD["nchunks"],
        _WORKLOAD["frames_per_chunk"], _WORKLOAD["seed"],
    )
    catalog = [
        DatasetRef(f"traj{i}.xtc", PLAYBACK_TAG, _WORKLOAD["nchunks"])
        for i in range(_WORKLOAD["ndatasets"])
    ]
    config = TrafficConfig(
        mode="closed", requests_per_tenant=_REQUESTS, window_chunks=3,
        zipf_s=1.1, seed=_WORKLOAD["seed"],
    )
    tenants = [f"t{i}" for i in range(_NTENANTS)]

    def build(fault_plan=None):
        return build_front(
            blobs,
            ntenants=_NTENANTS,
            concurrency=_NTENANTS,  # one slot per tenant
            l1_capacity_bytes=256 * 1024.0,
            max_inflight=4,
            byte_budget=None,
            fault_plan=fault_plan,
            retry_policy=RetryPolicy(max_retries=6) if fault_plan else None,
        )

    clean_front = build()
    clean = run_traffic(clean_front, tenants, catalog, config)

    plan = FaultPlan(seed=11, sites={f"serve:{_FAULTY_TENANT}": _SPEC})
    chaos_front = build(fault_plan=plan)
    chaos = run_traffic(chaos_front, tenants, catalog, config)
    return {
        "tenants": tenants,
        "clean": clean,
        "chaos": chaos,
        "chaos_front": chaos_front,
        "plan": plan,
    }


def test_faults_actually_fired_and_only_at_the_faulty_site(runs):
    plan = runs["plan"]
    assert plan.total() > 0, "chaos run injected nothing"
    value = runs["chaos_front"].metrics.value
    transient = value("retry_transient_faults_total", layer="serve")
    assert transient > 0
    assert value("retry_recovered_total", layer="serve") == transient
    # The serve layer's series ride the deployment's exporters, apart
    # from the middleware's own (unlabelled, here fault-free) retry_*.
    exported = runs["chaos_front"].metrics.to_prometheus()
    assert f'retry_transient_faults_total{{layer="serve"}} {transient}' in exported
    assert value("retry_transient_faults_total") == 0
    # The plan is quiet everywhere but the faulty tenant's site.
    for tenant in runs["tenants"]:
        if tenant != _FAULTY_TENANT:
            assert plan.spec_for(f"serve:{tenant}").is_quiet


def test_faulty_tenant_recovers_completely(runs):
    chaos = runs["chaos"]["per_tenant"][_FAULTY_TENANT]
    assert chaos["completed"] == _REQUESTS
    assert chaos["failed"] == 0
    # ... and recovery is invisible in the data it got back.
    assert chaos["digest"] == runs["clean"]["per_tenant"][_FAULTY_TENANT]["digest"]


def test_other_tenants_p99_within_2x_of_fault_free(runs):
    for tenant in runs["tenants"]:
        if tenant == _FAULTY_TENANT:
            continue
        clean_p99 = runs["clean"]["per_tenant"][tenant]["p99_s"]
        chaos_p99 = runs["chaos"]["per_tenant"][tenant]["p99_s"]
        assert chaos_p99 <= 2.0 * clean_p99, (
            f"{tenant}: p99 {chaos_p99:.6f}s vs fault-free {clean_p99:.6f}s"
        )


def test_all_tenants_bit_identical_under_chaos(runs):
    for tenant in runs["tenants"]:
        assert (
            runs["chaos"]["per_tenant"][tenant]["digest"]
            == runs["clean"]["per_tenant"][tenant]["digest"]
        ), tenant


def test_chaos_run_drops_nothing(runs):
    assert runs["chaos"]["completed"] == _NTENANTS * _REQUESTS
    assert runs["chaos"]["failed"] == 0
    assert runs["chaos"]["rejected"] == 0

"""Chaos properties over the multi-tenant serving layer.

The deployment's disk misbehaves (transient errors plus latency spikes
at its ``dev:`` fault site, under a plan attached to ``front.ada``); the
properties are:

* every tenant recovers -- the middleware's bounded retries absorb the
  transients and every request still completes with the right bytes;
* isolation survives chaos -- every tenant's digest is bit-identical to
  the fault-free run.
"""

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog, run_traffic
from repro.harness.benchserve import build_front
from repro.serve import DatasetRef, TrafficConfig

pytestmark = [pytest.mark.chaos, pytest.mark.serve]

_WORKLOAD = dict(ndatasets=2, natoms=200, nchunks=8, frames_per_chunk=4, seed=9)
_NTENANTS = 4
_REQUESTS = 12

#: Noisy but survivable under the middleware's default retry budget: the
#: warm cache leaves few reads for the disk, so one in two errors and one
#: in two pays a 5 ms spike (several times the clean service time).  At
#: seed 1 that is 5 transients and 4 spikes.
_SPEC = FaultSpec(transient_rate=0.5, latency_rate=0.5, latency_spike_s=5e-3)


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

    def build():
        return build_front(
            blobs,
            ntenants=_NTENANTS,
            concurrency=_NTENANTS,  # one slot per tenant
            l1_capacity_bytes=256 * 1024.0,
            max_inflight=4,
        )

    clean_front = build()
    clean = run_traffic(clean_front, tenants, catalog, config)

    chaos_front = build()
    plan = FaultPlan(seed=1, sites={"dev:*HDD*": _SPEC}).attach_to(
        chaos_front.ada
    )
    chaos = run_traffic(chaos_front, tenants, catalog, config)
    return {
        "tenants": tenants,
        "clean": clean,
        "chaos": chaos,
        "chaos_front": chaos_front,
        "plan": plan,
    }


def test_faults_fired_and_middleware_retries_absorbed_them(runs):
    plan = runs["plan"]
    transient = plan.total("transient")
    assert transient >= 3 and plan.total("latency") >= 3, plan.snapshot()
    value = runs["chaos_front"].metrics.value
    assert value("retry_transient_faults_total") == transient
    assert value("retry_retries_total") == transient
    assert value("retry_exhausted_total") == 0


def test_faulty_tenant_recovers_completely(runs):
    """Every tenant reads through the faulty disk; each recovers."""
    for tenant in runs["tenants"]:
        chaos = runs["chaos"]["per_tenant"][tenant]
        assert chaos["completed"] == _REQUESTS
        assert chaos["failed"] == 0


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

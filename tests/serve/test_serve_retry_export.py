"""Serve-layer retries reach the exporters.

``ServeFront`` used to build its ``Retrier`` over a *private* registry:
retries at the serving boundary showed up in a front snapshot and in no
Prometheus/JSON export.  They now count into the deployment's registry
under ``layer="serve"``, apart from the middleware's own ``retry_*``.
"""

import pytest

from repro.core import ADA
from repro.faults import RetryPolicy
from repro.faults.plan import FaultPlan
from repro.fs.localfs import LocalFS
from repro.obs import parse_prometheus
from repro.serve import ServeFront
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

pytestmark = pytest.mark.serve

LOGICAL = "traj.xtc"


def test_serve_layer_retries_are_exported():
    workload = build_workload(natoms=200, nframes=6, seed=3)
    sim = Simulator()
    ada = ADA(sim, backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")})
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob))
    middleware_attempts = ada.metrics.value("retry_attempts_total")

    front = ServeFront(
        ada,
        fault_plan=FaultPlan.transient_only(seed=1, rate=0.5),
        retry_policy=RetryPolicy(max_retries=16, seed=1),
    )
    assert front.metrics is ada.metrics
    viewer = front.register("viewer")
    reference = sim.run_process(ada.fetch(LOGICAL, "p")).data
    for _ in range(6):
        assert sim.run_process(viewer.fetch(LOGICAL, "p")).data == reference

    serve = (("layer", "serve"),)
    exported = parse_prometheus(ada.metrics.to_prometheus())
    assert exported["retry_attempts_total"][serve] > 6  # 6 requests + retries
    assert exported["retry_retries_total"][serve] > 0
    assert (
        exported["retry_recovered_total"][serve]
        <= exported["retry_retries_total"][serve]
    )
    assert exported["retry_attempts_total"][serve] == ada.metrics.value(
        "retry_attempts_total", layer="serve"
    )
    # The middleware's own series stays apart: the serve-boundary faults
    # never touched it (7 fault-free fetches, one attempt each).
    assert ada.metrics.value("retry_retries_total") == 0
    assert (
        ada.metrics.value("retry_attempts_total") == middleware_attempts + 7
    )
    assert set(ada.metrics.query("retry_attempts")) == {
        "retry_attempts_total",
        'retry_attempts_total{layer="serve"}',
    }


def test_front_without_a_fault_plan_exports_no_serve_series():
    sim = Simulator()
    ada = ADA(sim, backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")})
    ServeFront(ada)
    assert ada.metrics.query("retry_", layer="serve") == {}

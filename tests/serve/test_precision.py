"""Precision policy at the serving boundary.

Tier selection is a *serving* concern as much as a middleware one: each
tenant registers a default tier and any request can override it.
"""

import pytest

from repro.core import ADA
from repro.errors import ConfigurationError
from repro.fs.localfs import LocalFS
from repro.serve import ServeFront
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

pytestmark = [pytest.mark.serve, pytest.mark.lod]

LOGICAL = "traj.xtc"


@pytest.fixture(scope="module")
def workload():
    return build_workload(natoms=300, nframes=12, seed=5)


def _deployment(workload):
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        lod_precision=12.5,
    )
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob))
    return sim, ada, ServeFront(ada)


def test_tenant_precision_policy_sets_the_default_tier(workload):
    sim, ada, front = _deployment(workload)
    viewer = front.register("viewer", precision="lod")
    analysis = front.register("analysis")  # "full" default

    coarse = sim.run_process(viewer.fetch(LOGICAL, "p"))
    assert coarse.tier == "lod"
    assert coarse.max_error == ada.lod_bound(LOGICAL)

    exact = sim.run_process(analysis.fetch(LOGICAL, "p"))
    assert exact.tier == "full" and exact.max_error is None
    assert front.tenants["viewer"].precision == "lod"


def test_per_request_override_beats_tenant_policy(workload):
    sim, ada, front = _deployment(workload)
    viewer = front.register("viewer", precision="lod")

    pinned = sim.run_process(viewer.fetch(LOGICAL, "p", precision="full"))
    assert pinned.tier == "full" and pinned.max_error is None

    merged = sim.run_process(viewer.fetch_merged(LOGICAL, precision="full"))
    assert merged.tier == "full"

    chunks = sim.run_process(
        viewer.fetch_chunks(LOGICAL, "p", [0], precision="lod")
    )
    assert all(o.tier == "lod" for o in chunks)


def test_bad_tenant_precision_rejected_at_register(workload):
    _, _, front = _deployment(workload)
    for bad in ("approx", "auto"):
        with pytest.raises(ConfigurationError, match="unknown precision"):
            front.register("t", precision=bad)

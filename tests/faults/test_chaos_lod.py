"""Chaos properties of the precision tiers.

Under real injected trouble each read still gets the tier it asked for:
an ``lod`` reader gets coarse frames whose per-atom error stays within
the advertised bound -- never silently wrong bytes -- and a pinned
``full`` reader gets bit-exact bytes throughout.
"""

import numpy as np
import pytest

from repro.core import ADA
from repro.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.formats.xtc import decode_raw, decode_xtc
from repro.fs import LocalFS
from repro.sim import Simulator
from repro.storage import DevicePower, DeviceSpec
from repro.units import GB, mbps
from repro.workloads import build_workload

pytestmark = [pytest.mark.chaos, pytest.mark.lod]

LOGICAL = "bar.xtc"


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


def _ingested(seed, plan):
    workload = build_workload(natoms=400, nframes=8, seed=seed)
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": _fs(sim, "ssd")},
        lod_precision=12.5,
        retry_policy=RetryPolicy(max_retries=8),
    )
    plan.attach_to(ada)
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob))
    return sim, ada


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_tiers_hold_under_faults(seed):
    # Ingest on a quiet plan; the weather turns only once data is at rest.
    plan = FaultPlan(seed=seed)
    sim, ada = _ingested(seed, plan)
    baseline = sim.run_process(ada.fetch(LOGICAL, "p"))
    exact_coords = decode_raw(baseline.data).coords
    bound = ada.lod_bound(LOGICAL)
    plan.default = FaultSpec(transient_rate=0.25)

    def faults():
        return ada.metrics.value("retry_transient_faults_total")

    def read_both_tiers():
        coarse = sim.run_process(ada.fetch(LOGICAL, "p", precision="lod"))
        assert coarse.tier == "lod" and coarse.max_error == bound
        err = np.abs(decode_xtc(coarse.data).coords - exact_coords).max()
        assert err <= bound
        pinned = sim.run_process(ada.fetch(LOGICAL, "p", precision="full"))
        assert pinned.tier == "full" and pinned.max_error is None
        assert pinned.data == baseline.data

    level = faults()
    for _ in range(32):
        read_both_tiers()
        if faults() > level:
            break
    assert faults() > level, "plan injected nothing"
    # Mid-trouble: the plan is still noisy, and both tiers still hold.
    read_both_tiers()

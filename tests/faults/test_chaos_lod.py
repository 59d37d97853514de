"""Chaos properties of the ``auto`` precision tier.

The degradation contract under real injected trouble: while the fault
layer is acting up, an ``auto`` reader gets coarse frames whose per-atom
error stays within the advertised bound -- never silently wrong bytes --
and once the trouble clears, the same reader is back to bit-exact full
precision.  Explicitly pinned ``full`` reads are exact throughout.
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
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=8, backoff_base_s=1e-4),
    )
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, workload.xtc_blob))
    return sim, ada


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_auto_degrades_under_faults_and_recovers_when_clear(seed):
    # Ingest on a quiet plan; the weather turns only once data is at rest.
    plan = FaultPlan(seed=seed)
    sim, ada = _ingested(seed, plan)
    baseline = sim.run_process(ada.fetch(LOGICAL, "p"))
    exact_coords = decode_raw(baseline.data).coords
    plan.default = FaultSpec(transient_rate=0.25)

    # Prime the auto tier's degradation sampler on a (so far) quiet view.
    first = sim.run_process(ada.fetch(LOGICAL, "p", precision="auto"))
    assert first.tier in ("full", "lod")

    # Injected trouble: full-precision reads under a noisy plan drive the
    # fault layer's monotone degradation level up.
    def faults():
        return ada.metrics.value("retry_transient_faults_total")

    level = faults()
    for _ in range(32):
        sim.run_process(ada.fetch(LOGICAL, "p"))
        if faults() > level:
            break
    assert faults() > level, "plan injected nothing"

    degraded = sim.run_process(ada.fetch(LOGICAL, "p", precision="auto"))
    assert degraded.tier == "lod"
    bound = ada.lod_bound(LOGICAL)
    assert degraded.max_error == bound
    err = np.abs(decode_xtc(degraded.data).coords - exact_coords).max()
    assert err <= bound
    assert ada.metrics.value("lod_auto_lod_total") >= 1

    # A pinned full read is exact even mid-trouble.
    pinned = sim.run_process(ada.fetch(LOGICAL, "p"))
    assert pinned.tier == "full" and pinned.data == baseline.data

    # Clear the weather: with no new faults between two auto reads, the
    # tier settles back to full and the bytes are bit-exact again.
    plan.default = FaultSpec()
    recovered = None
    for _ in range(3):
        recovered = sim.run_process(ada.fetch(LOGICAL, "p", precision="auto"))
        if recovered.tier == "full":
            break
    assert recovered.tier == "full"
    assert recovered.max_error is None
    assert recovered.data == baseline.data
    # ... and it stays settled.
    again = sim.run_process(ada.fetch(LOGICAL, "p", precision="auto"))
    assert again.tier == "full"
    assert ada.metrics.value("lod_auto_full_total") >= 2

"""Admission control: one in-flight cap per tenant, enforced at submit.

The gate's one rule is ``max_inflight``: a request over it raises
:class:`~repro.errors.AdmissionRejected` synchronously, never enters the
scheduler, and is counted under ``serve_rejected_total{reason="inflight"}``.
Completions return their charge, so the tenant admits again once its
requests finish.
"""

import pytest

from repro.errors import AdmissionRejected
from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog
from repro.harness.benchserve import build_front

pytestmark = pytest.mark.serve


def _submit(session):
    """One open-loop (fire-and-forget) read of a one-chunk window."""
    return session.submit(
        "fetch_chunks", logical="traj0.xtc", tag=PLAYBACK_TAG, chunks=[0],
    )


def test_the_request_over_the_inflight_cap_is_rejected_at_submit():
    blobs = chunked_catalog(1, 200, 2, 4, 5)
    front = build_front(
        blobs, ntenants=1, concurrency=1, l1_capacity_bytes=64 * 1024.0,
        max_inflight=2,
    )
    session, value = front.session("t0"), front.metrics.value
    admitted = [_submit(session), _submit(session)]
    assert front.tenants["t0"].inflight == 2
    with pytest.raises(AdmissionRejected) as rejected:
        _submit(session)
    assert (rejected.value.tenant, rejected.value.limit, rejected.value.value) == (
        "t0", 2, 3,
    )
    assert front.metrics.query("serve_rejected_total") == {
        'serve_rejected_total{reason="inflight",tenant="t0"}': 1,
    }
    assert value("serve_admitted_total", tenant="t0") == 2
    # The rejected request never reached the scheduler.
    assert value("serve_requests_total", tenant="t0") == 2

    front.sim.run()
    assert all(request.ok for request in admitted)
    assert front.tenants["t0"].inflight == 0
    fourth = _submit(session)  # the completions returned their charge
    assert front.tenants["t0"].inflight == 1
    front.sim.run()
    assert fourth.ok and front.tenants["t0"].inflight == 0
    assert value("serve_admitted_total", tenant="t0") == 3
    assert value("serve_rejected_total", tenant="t0", reason="inflight") == 1

"""The admission ledger balances at quiescence, whichever way a request ends.

``ServeFront.submit`` charges a tenant's in-flight count; the request's
dispatch returns the charge in a ``finally``.  Each case here ends its
requests one way -- in the caller's process or through the queue,
succeeding or failing, fired and forgotten, refused at the gate, or cut
short by its caller -- and then runs the simulation dry: every tenant's
``inflight`` and ``serve_inflight`` gauge must read 0, with no scheduler
slot held and nothing queued.
"""

import pytest

from repro.errors import AdmissionRejected, ReproError
from repro.harness.benchkit import PLAYBACK_TAG, chunked_catalog
from repro.harness.benchserve import build_front
from repro.sim import Interrupt, Simulator

pytestmark = pytest.mark.serve

_MAX_INFLIGHT = 3


@pytest.fixture(scope="module")
def blobs():
    return chunked_catalog(1, 200, 4, 4, 9)


def _reader(session, logical):
    try:
        yield from session.fetch_chunks(logical, PLAYBACK_TAG, [0, 1])
    except (ReproError, Interrupt):
        pass


def _closed_loop(logical):
    def drive(front, session):
        front.sim.process(_reader(session, logical), name="reader")
    return drive


def _open_loop(front, session):
    for chunk in range(2):
        session.submit(
            "fetch_chunks", logical="traj0.xtc", tag=PLAYBACK_TAG,
            chunks=[chunk],
        )


def _rejected(front, session):
    _open_loop(front, session)
    session.submit("fetch", logical="traj0.xtc", tag=PLAYBACK_TAG)
    with pytest.raises(AdmissionRejected):
        session.submit("fetch", logical="traj0.xtc", tag=PLAYBACK_TAG)


def _interrupted(front, session):
    sim = front.sim

    def interrupter():
        yield sim.timeout(1e-4)  # mid-way through the indexer latency
        proc.interrupt("viewer closed")

    sim.process(interrupter())
    proc = sim.process(_reader(session, "traj0.xtc"), name="reader")


def _closed(front, session):
    sim = front.sim
    reads = session.fetch_chunks("traj0.xtc", PLAYBACK_TAG, [0, 1])
    sim.process(reads, name="reader")
    sim.run(until=sim.now + 1e-4)
    assert front.tenants["t0"].inflight == 1
    reads.close()


#: (drive, force the queue, runs in the caller's process, ok, failed)
CASES = {
    "direct_ok": (_closed_loop("traj0.xtc"), False, True, 1, 0),
    "direct_failing": (_closed_loop("missing.xtc"), False, True, 0, 1),
    "queued_ok": (_closed_loop("traj0.xtc"), True, False, 1, 0),
    "queued_failing": (_closed_loop("missing.xtc"), True, False, 0, 1),
    "open_loop": (_open_loop, False, False, 2, 0),
    "rejected": (_rejected, False, False, 3, 0),
    "interrupted": (_interrupted, False, True, 0, 1),
    "closed": (_closed, False, True, 0, 1),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_completion_path_returns_its_charge(monkeypatch, blobs, case):
    drive, queued, direct, ok, failed = CASES[case]
    if queued:
        monkeypatch.setattr(Simulator, "due_now", lambda self: True)
    front = build_front(
        blobs, ntenants=2, concurrency=2, l1_capacity_bytes=64 * 1024.0,
        max_inflight=_MAX_INFLIGHT,
    )
    drive(front, front.session("t0"))
    front.sim.run()

    (requests,) = front.scheduler.completed.values()
    assert [r.ok for r in requests].count(True) == ok
    assert [r.ok for r in requests].count(False) == failed
    assert all((r.done is None) == direct for r in requests)
    assert [t.inflight for t in front.tenants.values()] == [0, 0]
    gauges = front.metrics.query("serve_inflight")
    assert len(gauges) == 2 and set(gauges.values()) == {0}
    assert front.scheduler.slots.in_use == 0
    assert front.scheduler.backlog == 0

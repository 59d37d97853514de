"""Tests for FIFO resources."""

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator


def test_capacity_validation():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_uncontended_request_granted_immediately():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def proc(sim, res):
        with res.request() as req:
            yield req
            assert res.in_use == 1
            yield sim.timeout(1.0)
        return sim.now

    assert sim.run_process(proc(sim, res)) == 1.0
    assert res.in_use == 0


def test_contended_requests_serialize():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def worker(sim, res, name, hold):
        with res.request() as req:
            yield req
            log.append((sim.now, name, "start"))
            yield sim.timeout(hold)
            log.append((sim.now, name, "end"))

    sim.process(worker(sim, res, "a", 2.0))
    sim.process(worker(sim, res, "b", 1.0))
    sim.run()
    assert log == [
        (0.0, "a", "start"),
        (2.0, "a", "end"),
        (2.0, "b", "start"),
        (3.0, "b", "end"),
    ]


def test_multi_server_capacity_allows_overlap():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    ends = []

    def worker(sim, res, hold):
        with res.request() as req:
            yield req
            yield sim.timeout(hold)
            ends.append(sim.now)

    for _ in range(4):
        sim.process(worker(sim, res, 1.0))
    sim.run()
    # Two batches of two: finish at t=1 and t=2.
    assert ends == [1.0, 1.0, 2.0, 2.0]


def test_fifo_ordering():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    order = []

    def worker(sim, res, name, arrive):
        yield sim.timeout(arrive)
        with res.request() as req:
            yield req
            order.append(name)
            yield sim.timeout(5.0)

    for i, name in enumerate("abcd"):
        sim.process(worker(sim, res, name, arrive=float(i)))
    sim.run()
    assert order == ["a", "b", "c", "d"]


def test_release_of_idle_resource_rejected():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    with pytest.raises(SimulationError):
        res.release()


def test_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    holder_req = res.request()  # granted immediately
    queued = res.request()  # waits
    assert res.queue_length == 1
    queued.release()  # cancel before grant
    assert res.queue_length == 0
    holder_req.release()
    assert res.in_use == 0


def test_queue_and_peak_stats():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def worker(sim, res):
        with res.request() as req:
            yield req
            yield sim.timeout(1.0)

    for _ in range(3):
        sim.process(worker(sim, res))
    sim.run()
    assert res.total_requests == 3
    assert res.peak_queue_len == 2


def test_acquire_takes_a_slot_without_an_event():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    res.acquire()
    assert res.in_use == 1 and res.total_requests == 1
    assert sim.events_processed == 0 and not sim.due_now()
    with pytest.raises(SimulationError, match="no free slot"):
        res.acquire()
    assert res.total_requests == 1  # a refused acquire is not counted
    waiter = res.request()  # queues behind the acquired slot
    assert not waiter.triggered and res.peak_queue_len == 1
    res.release()  # hands the slot straight over, as for a Request
    assert waiter.triggered and res.in_use == 1
    waiter.release()
    assert res.in_use == 0 and res.total_requests == 2

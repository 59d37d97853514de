"""Tests for device specs and sim-bound devices."""

import pytest

from repro.errors import (
    ConfigurationError,
    RetryExhaustedError,
    SimulationError,
    StorageFullError,
    TransientFaultError,
)
from repro.faults import FaultPlan, FaultSpec, Retrier, RetryPolicy
from repro.sim import Simulator
from repro.storage import Device, DeviceSpec, DevicePower, WD_1TB_HDD, NVME_SSD_256GB
from repro.units import GB, MB, mbps


def _spec(read=100.0, write=50.0, seek_ms=10.0, capacity=1 * GB):
    return DeviceSpec(
        name="test",
        read_bw=mbps(read),
        write_bw=mbps(write),
        seek_latency_s=seek_ms / 1e3,
        capacity=capacity,
        power=DevicePower(active_w=5.0, idle_w=1.0),
    )


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        _spec(read=0.0)
    with pytest.raises(ConfigurationError):
        _spec(capacity=0)


def test_read_time_seek_plus_stream():
    spec = _spec(read=100.0, seek_ms=10.0)
    assert spec.read_time(100 * MB) == pytest.approx(0.01 + 1.0)
    assert spec.read_time(100 * MB, requests=5) == pytest.approx(0.05 + 1.0)


def test_write_time_uses_write_bw():
    spec = _spec(write=50.0, seek_ms=0.0)
    assert spec.write_time(100 * MB) == pytest.approx(2.0)


def test_scaled_spec():
    spec = _spec(read=100.0).scaled(2.0)
    assert spec.read_bw == mbps(200.0)
    assert spec.capacity == _spec().capacity


def test_paper_hdd_spec():
    assert WD_1TB_HDD.read_bw == mbps(126.0)
    assert WD_1TB_HDD.read_time(126 * MB) == pytest.approx(1.0 + 0.008)


def test_paper_ssd_much_faster_than_hdd():
    nbytes = 1 * GB
    assert WD_1TB_HDD.read_time(nbytes) > 20 * NVME_SSD_256GB.read_time(nbytes)


def test_device_capacity_accounting():
    sim = Simulator()
    dev = Device(sim, _spec(capacity=1 * GB))
    dev.allocate(0.6 * GB)
    assert dev.free_bytes == pytest.approx(0.4 * GB)
    with pytest.raises(StorageFullError):
        dev.allocate(0.5 * GB)
    dev.free(0.2 * GB)
    dev.allocate(0.5 * GB)


def test_device_read_occupies_sim_time():
    sim = Simulator()
    dev = Device(sim, _spec(read=100.0, seek_ms=0.0))
    sim.run_process(dev.read(200 * MB))
    assert sim.now == pytest.approx(2.0)
    assert dev.busy.busy_time("read") == pytest.approx(2.0)


def test_concurrent_reads_serialize_on_device():
    sim = Simulator()
    dev = Device(sim, _spec(read=100.0, seek_ms=0.0))
    sim.process(dev.read(100 * MB))
    sim.process(dev.read(100 * MB))
    sim.run()
    assert sim.now == pytest.approx(2.0)  # FIFO, not parallel
    assert dev.busy.union_time() == pytest.approx(2.0)


def test_device_write_label_recorded():
    sim = Simulator()
    dev = Device(sim, _spec(write=50.0, seek_ms=0.0))
    sim.run_process(dev.write(50 * MB, label="checkpoint"))
    assert dev.busy.by_label() == {"checkpoint": pytest.approx(1.0)}



def test_free_raises_on_underflow():
    dev = Device(Simulator(), _spec(capacity=1 * GB))
    dev.allocate(100 * MB)
    with pytest.raises(SimulationError):
        dev.free(100 * MB + 1)
    dev.free(100 * MB)
    assert dev.used_bytes == 0


# -- the queue ledgers: queued nanoseconds and queued writes ------------------


def _ledgers(dev):
    return dev.queued_ns, dev.queued_writes


def test_ledgers_count_queued_work_and_balance_after_service():
    sim = Simulator()
    spec = _spec(read=100.0, write=50.0, seek_ms=0.0)
    dev = Device(sim, spec)
    sim.process(dev.write(50 * MB))
    sim.process(dev.read(100 * MB))
    sim.run(until=0.5)
    # The write is in service and the read queued behind it: both count.
    assert _ledgers(dev) == (2_000_000_000, 1)
    sim.run(until=1.5)
    assert _ledgers(dev) == (1_000_000_000, 0)
    sim.run()
    assert _ledgers(dev) == (0, 0)


def test_ledgers_untouched_by_a_fault_at_the_gate():
    sim = Simulator()
    dev = Device(sim, _spec())
    FaultPlan(seed=1, sites={dev.fault_site: FaultSpec(transient_rate=1.0)}).attach(
        dev
    )
    for op in (dev.read, dev.write):
        with pytest.raises(TransientFaultError):
            sim.run_process(op(1 * MB))
        assert _ledgers(dev) == (0, 0)


def test_ledgers_balance_when_a_deadline_cancels_a_queued_request():
    sim = Simulator()
    dev = Device(sim, _spec(write=50.0, seek_ms=0.0))
    retrier = Retrier(sim, policy=RetryPolicy.no_retries(timeout_s=0.1))
    sim.process(dev.write(50 * MB))  # 1 s in service

    def late_write():
        with pytest.raises(RetryExhaustedError):
            yield from retrier.call(lambda: dev.write(1 * MB))

    late = sim.process(late_write())
    sim.run(until=0.5)
    assert late.triggered and late.ok
    # Cancelled while it waited: only the write in service remains.
    assert _ledgers(dev) == (1_000_000_000, 1)
    sim.run()
    assert _ledgers(dev) == (0, 0)


def test_ledgers_balance_when_a_waiting_generator_is_abandoned():
    sim = Simulator()
    dev = Device(sim, _spec(read=100.0, write=50.0, seek_ms=0.0))
    sim.process(dev.read(100 * MB))
    sim.run(until=0.5)
    waiting = dev.write(50 * MB)
    next(waiting)  # queued behind the read in service
    assert _ledgers(dev) == (2_000_000_000, 1)
    waiting.close()
    assert _ledgers(dev) == (1_000_000_000, 0)
    sim.run()
    assert _ledgers(dev) == (0, 0)

"""Tests for node models and energy integration."""

import pytest

from repro.cluster import ComputeNode, CpuSpec, StorageNode, cluster_energy, node_energy
from repro.cluster.energy import storage_node_energy
from repro.errors import ConfigurationError
from repro.sim import Simulator
from repro.storage import Device, DevicePower, DeviceSpec, NodePower
from repro.units import GB, MB, mbps


def _cpu(dec=90.0, scan=185.0, render=550.0):
    return CpuSpec(
        name="E5-2603v4",
        cores=6,
        ghz=1.7,
        decompress_rate=mbps(dec),
        scan_rate=mbps(scan),
        render_rate=mbps(render),
    )


def _node(sim, mem=16 * GB):
    return ComputeNode(
        sim,
        "cn0",
        cpu=_cpu(),
        memory_capacity=mem,
        power=NodePower(idle_w=400.0, cpu_active_w=200.0, io_active_w=50.0),
    )


def test_cpu_spec_validation():
    with pytest.raises(ConfigurationError):
        CpuSpec(name="x", cores=0, ghz=1.0, decompress_rate=1, scan_rate=1, render_rate=1)
    with pytest.raises(ConfigurationError):
        _cpu(dec=0.0)


def test_decompress_duration():
    sim = Simulator()
    node = _node(sim)
    sim.run_process(node.decompress(90 * MB))
    assert sim.now == pytest.approx(1.0)
    assert node.cpu_busy.busy_time("decompress") == pytest.approx(1.0)


def test_scan_and_render_rates():
    sim = Simulator()
    node = _node(sim)
    sim.run_process(node.scan(185 * MB))
    sim.run_process(node.render(550 * MB))
    assert node.cpu_busy.busy_time("scan") == pytest.approx(1.0)
    assert node.cpu_busy.busy_time("render") == pytest.approx(1.0)


def test_pipeline_serializes_cpu_phases():
    """The VMD data path is single-threaded: phases cannot overlap."""
    sim = Simulator()
    node = _node(sim)
    sim.process(node.decompress(90 * MB))
    sim.process(node.render(550 * MB))
    sim.run()
    assert sim.now == pytest.approx(2.0)


def test_zero_rate_rejected_at_work_time():
    sim = Simulator()
    node = _node(sim)
    with pytest.raises(ConfigurationError):
        sim.run_process(node.cpu_work(1.0, 0.0, "bad"))


def test_reset_run_clears_state():
    sim = Simulator()
    node = _node(sim)
    node.memory.allocate("x", 1 * GB)
    sim.run_process(node.decompress(9 * MB))
    node.reset_run()
    assert node.memory.in_use == 0.0
    assert node.cpu_busy.busy_time() == 0.0


def test_node_energy_integrates_phases():
    sim = Simulator()
    node = _node(sim)
    sim.run_process(node.decompress(90 * MB))  # 1 s CPU-busy
    node.record_io(1.0, 3.0)  # 2 s IO
    wall = 4.0
    # idle 400*4 + cpu 200*1 + io 50*2.
    assert node_energy(node, wall) == pytest.approx(1600 + 200 + 100)


def test_storage_node_energy_includes_devices():
    sim = Simulator()
    spec = DeviceSpec(
        name="d",
        read_bw=mbps(100),
        write_bw=mbps(100),
        seek_latency_s=0.0,
        capacity=1 * GB,
        power=DevicePower(active_w=10.0, idle_w=2.0),
    )
    dev = Device(sim, spec)
    sim.run_process(dev.read(100 * MB))  # 1 s busy
    node = StorageNode(
        name="sn0",
        devices=[dev],
        power=NodePower(idle_w=100.0, cpu_active_w=0.0),
    )
    # Node idle 100*2 + device active 10*1 + device idle 2*1.
    assert storage_node_energy(node, wall_s=2.0) == pytest.approx(212.0)


def test_cluster_energy_sums_nodes():
    sim = Simulator()
    a, b = _node(sim), _node(sim)
    total = cluster_energy([a, b], [], wall_s=10.0)
    assert total == pytest.approx(2 * 400.0 * 10.0)

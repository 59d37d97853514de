"""Compute and storage node models.

A :class:`ComputeNode` owns the CPU pipeline (a FIFO resource -- the VMD
data path is single-threaded, as the paper's Flame Graph shows one burst
per phase), a :class:`MemoryLedger`, and per-phase CPU *rates* calibrated in
:mod:`repro.harness.calibration`.  A :class:`StorageNode` groups the
devices and uplink of one storage server.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional

from repro.cluster.memory import MemoryLedger
from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.sim import BusyTracker, Resource, Simulator
from repro.storage.device import Device
from repro.storage.power import NodePower

__all__ = ["CpuSpec", "ComputeNode", "StorageNode"]


@dataclass(frozen=True)
class CpuSpec:
    """CPU identity plus the calibrated single-thread processing rates.

    Rates are bytes/second of the quantity named:

    * ``decompress_rate`` -- raw bytes *produced* per second of inflate
      (the C-path tax; drives the 13.4x of Fig. 7b and the >50 % CPU share
      of Fig. 8);
    * ``scan_rate`` -- decompressed bytes scanned per second when filtering
      active data or re-merging ADA subsets (the D-path tax);
    * ``render_rate`` -- active-subset bytes turned into 3D geometry per
      second (both paths pay it).
    """

    name: str
    cores: int
    ghz: float
    decompress_rate: float
    scan_rate: float
    render_rate: float

    def __post_init__(self) -> None:
        if min(self.decompress_rate, self.scan_rate, self.render_rate) <= 0:
            raise ConfigurationError(f"{self.name}: rates must be positive")
        if self.cores < 1:
            raise ConfigurationError(f"{self.name}: needs at least one core")


class ComputeNode:
    """A node running the VMD front end (or ADA's storage-side logic)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        cpu: CpuSpec,
        memory_capacity: float,
        power: NodePower,
        nic: Optional[Link] = None,
    ):
        self.sim = sim
        self.name = name
        self.cpu = cpu
        self.memory = MemoryLedger(memory_capacity)
        self.power = power
        self.nic = nic
        # Single-threaded data path: one pipeline slot regardless of cores.
        self.pipeline = Resource(sim, capacity=1, name=f"{name}:cpu")
        # In-situ analysis slot: the fused ingest stage charges its pass
        # here, on a spare core, so analyzing window k overlaps the data
        # path's decompress/categorize of window k+1 on the same node.
        self.analysis_pipeline = Resource(sim, capacity=1, name=f"{name}:analysis")
        self.cpu_busy = BusyTracker(f"{name}:cpu")
        self.io_busy = BusyTracker(f"{name}:io")

    def cpu_work(self, nbytes: float, rate: float, label: str) -> Generator:
        """Process: occupy the CPU pipeline for ``nbytes / rate`` seconds."""
        if rate <= 0:
            raise ConfigurationError(f"{self.name}: non-positive rate for {label}")
        with self.pipeline.request() as req:
            yield req
            start = self.sim.now
            yield self.sim.timeout(nbytes / rate)
            self.cpu_busy.record(start, self.sim.now, label)

    def decompress(self, raw_nbytes: float) -> Generator:
        """Process: inflate ``raw_nbytes`` of output (paper's phase 1 tax)."""
        yield from self.cpu_work(raw_nbytes, self.cpu.decompress_rate, "decompress")

    def scan(self, nbytes: float, label: str = "scan") -> Generator:
        """Process: scan/filter/merge over decompressed data."""
        yield from self.cpu_work(nbytes, self.cpu.scan_rate, label)

    def render(self, nbytes: float) -> Generator:
        """Process: build 3D geometry from active data (phase 2)."""
        yield from self.cpu_work(nbytes, self.cpu.render_rate, "render")

    def analyze(self, nbytes: float) -> Generator:
        """Process: in-situ analysis pass over decompressed window data.

        Charged at the scan rate (a streaming pass over the decoded
        coordinates) but on the *analysis* slot, not the data-path
        pipeline, so a fused ingest overlaps it with pre-processing.
        """
        if self.cpu.scan_rate <= 0:
            raise ConfigurationError(f"{self.name}: non-positive rate for analyze")
        with self.analysis_pipeline.request() as req:
            yield req
            start = self.sim.now
            yield self.sim.timeout(nbytes / self.cpu.scan_rate)
            self.cpu_busy.record(start, self.sim.now, "analyze")

    def record_io(self, start: float, end: float, label: str = "io") -> None:
        """Note an I/O window for the power model."""
        self.io_busy.record(start, end, label)

    def reset_run(self) -> None:
        """Fresh process semantics between experiment points."""
        self.memory.reset()
        self.cpu_busy.clear()
        self.io_busy.clear()


@dataclass
class StorageNode:
    """A storage server: its devices, uplink, and power envelope."""

    name: str
    devices: List[Device]
    power: NodePower
    link: Optional[Link] = None

"""Generic storage-device model.

A :class:`DeviceSpec` is a pure function from request shape to service time;
a :class:`Device` is a sim-bound instance with a FIFO queue (one request in
service at a time, as for a real block device at queue depth 1) and a
:class:`~repro.sim.stats.BusyTracker` for the energy model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator, Optional

from repro.errors import ConfigurationError, SimulationError, StorageFullError
from repro.faults.plan import FaultSite
from repro.obs.trace import span
from repro.sim import BusyTracker, Resource, Simulator
from repro.storage.power import DevicePower

__all__ = ["DeviceSpec", "Device"]


@dataclass(frozen=True)
class DeviceSpec:
    """Cost/power envelope of one storage device.

    ``seek_latency_s`` is charged once per request (head movement for HDDs,
    command overhead for SSDs); sequential bandwidth covers the payload.
    """

    name: str
    read_bw: float  # bytes/second, sequential
    write_bw: float  # bytes/second, sequential
    seek_latency_s: float
    capacity: float  # bytes
    power: DevicePower

    def __post_init__(self) -> None:
        if self.read_bw <= 0 or self.write_bw <= 0:
            raise ConfigurationError(f"{self.name}: bandwidth must be positive")
        if self.seek_latency_s < 0 or self.capacity <= 0:
            raise ConfigurationError(f"{self.name}: bad latency/capacity")

    def read_time(self, nbytes: float, requests: int = 1) -> float:
        """Service time for a read of ``nbytes`` issued as ``requests`` ops."""
        return max(requests, 1) * self.seek_latency_s + nbytes / self.read_bw

    def write_time(self, nbytes: float, requests: int = 1) -> float:
        return max(requests, 1) * self.seek_latency_s + nbytes / self.write_bw

    def scaled(self, factor: float, name: Optional[str] = None) -> "DeviceSpec":
        """A spec with bandwidths scaled by ``factor`` (for arrays/ablations)."""
        return replace(
            self,
            name=name or f"{self.name}x{factor:g}",
            read_bw=self.read_bw * factor,
            write_bw=self.write_bw * factor,
        )


class Device(FaultSite):
    """A sim-bound storage device: FIFO service + occupancy accounting."""

    site_kind = "dev"

    def __init__(self, sim: Simulator, spec: DeviceSpec, name: Optional[str] = None):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self.resource = Resource(sim, capacity=1, name=self.name)
        self.busy = BusyTracker(self.name)
        self.used_bytes = 0.0
        #: Requests queued or in service: their service time in integer
        #: nanoseconds, and how many are writes.  Exact integers, so both
        #: are 0 at quiescence and "a write is queued" never comes from
        #: rounding.
        self.queued_ns = 0
        self.queued_writes = 0
        self._series: dict = {}  # op -> (registry, its three series)

    @property
    def free_bytes(self) -> float:
        return self.spec.capacity - self.used_bytes

    def allocate(self, nbytes: float) -> None:
        """Reserve capacity for a write (raises when the device is full)."""
        if nbytes > self.free_bytes:
            raise StorageFullError(
                f"{self.name}: {nbytes:.3e} B requested, "
                f"{self.free_bytes:.3e} B free"
            )
        self.used_bytes += nbytes

    def free(self, nbytes: float) -> None:
        """Return capacity :meth:`allocate` reserved (raises on underflow)."""
        if nbytes > self.used_bytes:
            raise SimulationError(
                f"{self.name}: freed {nbytes:.3e} B, {self.used_bytes:.3e} B used"
            )
        self.used_bytes -= nbytes

    # -- sim processes --------------------------------------------------------

    def read(self, nbytes: float, requests: int = 1, label: str = "read") -> Generator:
        """DES process: occupy the device for the read's service time."""
        duration = self.spec.read_time(nbytes, requests)
        return self._serve("read", duration, nbytes, requests, label)

    def write(self, nbytes: float, requests: int = 1, label: str = "write") -> Generator:
        """DES process: occupy the device for the write's service time."""
        duration = self.spec.write_time(nbytes, requests)
        return self._serve("write", duration, nbytes, requests, label)

    def _serve(
        self, op: str, duration: float, nbytes: float, requests: int, label: str
    ) -> Generator:
        with span(
            self.sim, f"device.{op}",
            device=self.name, nbytes=int(nbytes), requests=requests,
        ):
            yield from self._fault_gate(op)
            queued_ns, writes = round(duration * 1e9), int(op == "write")
            req = self.resource.request()
            self.queued_ns += queued_ns
            self.queued_writes += writes
            try:
                yield req
                start = self.sim.now
                yield self.sim.timeout(duration)
                self.busy.record(start, self.sim.now, label)
            finally:
                req.release()
                self.queued_ns -= queued_ns
                self.queued_writes -= writes
            self._record_metrics(op, duration, nbytes)

    def _record_metrics(self, op: str, duration: float, nbytes: float) -> None:
        """Per-device counters/histograms on the sim-attached registry.

        Pure bookkeeping (no simulated cost): attaching observability can
        never change event order or timing.
        """
        registry = getattr(self.sim, "metrics", None)
        if registry is None:
            return
        series = self._series.get(op)
        if series is None or series[0] is not registry:
            labels = {"device": self.name, "op": op}
            series = self._series[op] = (
                registry,
                registry.counter("device_ops_total", **labels),
                registry.counter("device_bytes_total", **labels),
                registry.histogram("device_service_seconds", **labels),
            )
        _, ops, nbytes_total, seconds = series
        ops.inc()
        nbytes_total.inc(int(nbytes))
        seconds.observe(duration)

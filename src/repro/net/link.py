"""Point-to-point network link model."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.errors import ConfigurationError
from repro.faults.plan import FaultSite
from repro.sim import BusyTracker, Resource, Simulator

__all__ = ["LinkSpec", "Link"]


@dataclass(frozen=True)
class LinkSpec:
    """Latency + bandwidth envelope of a network path."""

    name: str
    bandwidth: float  # bytes/second
    latency_s: float  # one-way

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency_s < 0:
            raise ConfigurationError(f"{self.name}: bad link parameters")

    def transfer_time(self, nbytes: float, messages: int = 1) -> float:
        """Time to move ``nbytes`` in ``messages`` round-trips-worth of ops."""
        return max(messages, 1) * self.latency_s + nbytes / self.bandwidth


class Link(FaultSite):
    """Sim-bound link: transfers queue FIFO and record busy intervals."""

    site_kind = "link"

    def __init__(self, sim: Simulator, spec: LinkSpec, name: Optional[str] = None):
        self.sim = sim
        self.spec = spec
        self.name = name or spec.name
        self.resource = Resource(sim, capacity=1, name=self.name)
        self.busy = BusyTracker(self.name)
        self.bytes_moved = 0.0

    def transfer(
        self, nbytes: float, messages: int = 1, label: str = "xfer"
    ) -> Generator:
        """DES process: occupy the link while the payload streams."""
        yield from self._fault_gate("xfer")
        with self.resource.request() as req:
            yield req
            start = self.sim.now
            yield self.sim.timeout(self.spec.transfer_time(nbytes, messages))
            self.busy.record(start, self.sim.now, label)
            self.bytes_moved += nbytes

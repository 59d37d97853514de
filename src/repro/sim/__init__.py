"""Discrete-event simulation kernel.

A small, dependency-free DES engine in the style of SimPy: generator-based
processes communicate through :class:`~repro.sim.engine.Event` objects and
contend for :class:`~repro.sim.resources.Resource` instances.  The cluster,
storage-device, and network models are all built on this kernel so that
striped parallel reads, dual-pool transfers, and pipeline overlap are modeled
by *actual concurrency* in simulated time rather than ad-hoc closed-form
formulas.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from repro.sim.resources import Request, Resource
from repro.sim.stats import BusyTracker

__all__ = [
    "AllOf",
    "AnyOf",
    "BusyTracker",
    "Event",
    "Interrupt",
    "Process",
    "Request",
    "Resource",
    "Simulator",
    "Timeout",
]

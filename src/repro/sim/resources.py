"""Contended resources for the DES kernel.

:class:`Resource` is a FIFO multi-server resource (capacity ``n`` means at
most ``n`` concurrent holders).  Storage devices, CPU cores, and network
links each wrap a :class:`Resource` so that concurrent transfers queue
realistically instead of magically overlapping.

Requests are context managers so modeling code can write::

    with device.resource.request() as req:
        yield req
        yield sim.timeout(device.access_time(nbytes))
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["Request", "Resource"]


class Request(Event):
    """A pending claim on a :class:`Resource`; fires when granted."""

    __slots__ = ("resource",)

    def __init__(self, sim: Simulator, resource: "Resource"):
        super().__init__(sim)
        self.resource = resource

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.resource.release(self)

    def release(self) -> None:
        self.resource.release(self)


class Resource:
    """FIFO resource with integer capacity.

    ``request()`` returns a :class:`Request` event that fires when one of the
    ``capacity`` slots is granted.  ``release()`` frees a slot and grants the
    next queued request at the current simulation time.
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = int(capacity)
        self.name = name
        self._queue: Deque[Request] = deque()
        self._users: int = 0
        # Diagnostics.
        self.total_requests = 0
        self.peak_queue_len = 0

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._users

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        req = Request(self.sim, self)
        self.total_requests += 1
        if self._users < self.capacity:
            self._users += 1
            req.succeed(req)
        else:
            self._queue.append(req)
            self.peak_queue_len = max(self.peak_queue_len, len(self._queue))
        return req

    def acquire(self) -> None:
        """Take a free slot now, with no event (``release()`` frees it)."""
        if self._users >= self.capacity:
            raise SimulationError(f"no free slot on {self.name!r}")
        self.total_requests += 1
        self._users += 1

    def release(self, request: Optional[Request] = None) -> None:
        """Free a slot (idempotent per request: releasing an unfired queued
        request just cancels it)."""
        if request is not None and not request.triggered:
            # Cancel a still-queued request.
            try:
                self._queue.remove(request)
            except ValueError:
                pass
            return
        if self._users <= 0:
            raise SimulationError(f"release of idle resource {self.name!r}")
        if self._queue:
            nxt = self._queue.popleft()
            nxt.succeed(nxt)  # hand the slot straight over
        else:
            self._users -= 1

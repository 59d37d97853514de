"""Striped parallel file system (the PVFS / OrangeFS stand-in).

Objects stripe round-robin across storage targets; a read fans out one DES
process per target (device service, then the target's network link), and
completes when the slowest target finishes -- heterogeneous pools are
therefore paced by their HDD members, exactly the effect Section 4.2
wrestles with.

Client requests cost ``request_overhead_s`` each (RPC + scheduling).  A
traditional VMD reader issues stripe-sized requests (the xdrfile library
reads frame-by-frame), so wide files pay thousands of round trips; ADA's
retriever issues multi-megabyte requests against PLFS subset files and
sidesteps that tax.  This per-request asymmetry is the mechanism behind the
paper's ">2x better than PVFS" retrieval claim, and is explored by the
request-size ablation bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    FileNotFoundInFSError,
    StorageFullError,
)
from repro.fs.base import FileSystem, StoredObject
from repro.net.link import Link
from repro.sim import AllOf, Simulator
from repro.storage.device import Device, DeviceSpec
from repro.units import KiB

__all__ = ["PVFS", "StorageTarget"]

DEFAULT_STRIPE = 64 * KiB


@dataclass
class StorageTarget:
    """One storage server: a device plus its link toward the clients."""

    device: Device
    link: Optional[Link] = None

    @property
    def name(self) -> str:
        return self.device.name


class PVFS(FileSystem):
    """Round-robin striped parallel file system."""

    def __init__(
        self,
        sim: Simulator,
        targets: List[StorageTarget],
        name: str = "pvfs",
        stripe_size: int = DEFAULT_STRIPE,
        request_overhead_s: float = 0.5e-3,
        metadata_latency_s: float = 200e-6,
    ):
        if not targets:
            raise ConfigurationError("PVFS needs at least one storage target")
        if stripe_size <= 0:
            raise ConfigurationError("stripe size must be positive")
        super().__init__(sim, name)
        self.targets = list(targets)
        self.stripe_size = int(stripe_size)
        self.request_overhead_s = request_overhead_s
        self.metadata_latency_s = metadata_latency_s

    # -- striping arithmetic --------------------------------------------------

    def stripe_layout(self, nbytes: int) -> List[int]:
        """Bytes landing on each target for an object of ``nbytes``."""
        n = len(self.targets)
        full, rem = divmod(int(nbytes), self.stripe_size)
        per_target = [(full // n) * self.stripe_size] * n
        for k in range(full % n):
            per_target[k] += self.stripe_size
        if rem:
            per_target[full % n] += rem
        return per_target

    def _extent_layout(self, start: int, nbytes: int) -> List[int]:
        """Bytes landing on each target for ``[start, start + nbytes)`` of
        an object (striping only ever adds bytes to a target)."""
        if not start:
            return self.stripe_layout(nbytes)
        return [
            grown - before
            for before, grown in zip(
                self.stripe_layout(start), self.stripe_layout(start + nbytes)
            )
        ]

    # -- DES processes ----------------------------------------------------------

    def write(
        self,
        path: str,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
        request_size: Optional[int] = None,
        label: str = "write",
    ) -> Generator:
        yield from self._fault_gate("write", path)
        size = self._payload_size(data, nbytes)
        yield from self._striped_write(0, size, request_size, label)
        self._release_replaced(path)
        self.store.put(path, data=data, nbytes=size)
        self.bytes_written += size
        return StoredObject(path=path, nbytes=size, data=data)

    def append(self, path: str, data: bytes, label: str = "write") -> Generator:
        """Process: extend an object, paying for the appended bytes only.

        The new bytes continue the object's round-robin striping where it
        ended, so only the targets the delta lands on are reserved and
        written, and a later :meth:`delete` (which frees the layout of
        the total size) balances exactly.
        """
        yield from self._fault_gate("write", path)
        start = self._size(path)
        yield from self._striped_write(start, len(data), None, label)
        end = self._size(path)
        if end != start:
            # Another writer landed while this one was in flight: move the
            # reservation to the stripes the bytes actually continue on.
            self._release(start, len(data))
            self._reserve(end, len(data))
        self.store.append(path, data)
        self.bytes_written += len(data)
        return StoredObject(path=path, nbytes=len(data), data=data)

    def _striped_write(
        self, start: int, nbytes: int, request_size: Optional[int], label: str
    ) -> Generator:
        """Process: reserve and write bytes ``[start, start + nbytes)`` of
        an object on the targets they stripe onto.  Nothing is stored
        yet; a target-level injected failure (or an abandoned write)
        releases every stripe reservation so a retried write starts from
        a clean slate."""
        self._reserve(start, nbytes)
        try:
            yield self.sim.timeout(self.metadata_latency_s)
            procs = [
                self.sim.process(
                    self._target_io(t, share, request_size, label, write=True),
                    name=f"{self.name}:write:{t.name}",
                )
                for t, share in zip(self.targets, self._extent_layout(start, nbytes))
                if share
            ]
            if procs:
                yield AllOf(self.sim, procs)
        except BaseException:
            self._release(start, nbytes)
            raise

    def read(
        self,
        path: str,
        request_size: Optional[int] = None,
        label: str = "read",
    ) -> Generator:
        decision = yield from self._fault_gate("read", path)
        if not self.store.exists(path):
            raise FileNotFoundInFSError(f"{self.name}: {path}")
        size = self.store.nbytes(path)
        layout = self.stripe_layout(size)
        yield self.sim.timeout(self.metadata_latency_s)
        procs = [
            self.sim.process(
                self._target_io(t, share, request_size, label, write=False),
                name=f"{self.name}:read:{t.name}",
            )
            for t, share in zip(self.targets, layout)
            if share
        ]
        if procs:
            yield AllOf(self.sim, procs)
        self.bytes_read += size
        data = None if self.store.is_virtual(path) else self.store.data(path)
        data = self._fault_payload(decision, "read", data)
        return StoredObject(path=path, nbytes=size, data=data)

    def device_backlog(self) -> Tuple[int, int]:
        devices = [target.device for target in self.targets]
        return (
            sum(d.queued_ns for d in devices),
            sum(d.queued_writes for d in devices),
        )

    def _reserve(self, start: int, nbytes: int) -> None:
        layout = self._extent_layout(start, nbytes)
        # Check the whole layout before allocating anything so a mid-loop
        # failure cannot leak partially-reserved capacity.
        for target, share in zip(self.targets, layout):
            if share > target.device.free_bytes:
                raise StorageFullError(
                    f"{self.name}: target {target.name} needs {share:.3e} B, "
                    f"has {target.device.free_bytes:.3e} B free"
                )
        for target, share in zip(self.targets, layout):
            if share:
                target.device.allocate(share)

    def _release(self, start: int, nbytes: int) -> None:
        for target, share in zip(self.targets, self._extent_layout(start, nbytes)):
            if share:
                target.device.free(share)

    def _target_io(
        self,
        target: StorageTarget,
        share: int,
        request_size: Optional[int],
        label: str,
        write: bool,
    ) -> Generator:
        """One target's slice: client RPCs, device service, network hop."""
        chunk = request_size if request_size and request_size > 0 else self.stripe_size
        nrequests = max(1, -(-share // chunk))
        yield self.sim.timeout(nrequests * self.request_overhead_s)
        if write:
            yield from target.device.write(share, requests=1, label=label)
        else:
            yield from target.device.read(share, requests=1, label=label)
        if target.link is not None:
            yield from target.link.transfer(share, messages=nrequests, label=label)

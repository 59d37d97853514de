"""Single-device local file system (the ext4 / XFS stand-in).

All data lives on one device (possibly a RAID composite spec); reads and
writes queue on that device.  ``flavor`` only labels the FS (ext4 on the
SSD server, XFS on the fat node) -- their streaming behaviour is identical
at this model's fidelity, which matches the paper's usage (both are simply
"an existing file system").
"""

from __future__ import annotations

from typing import Generator, Optional, Tuple

from repro.errors import FileNotFoundInFSError
from repro.fs.base import FileSystem, StoredObject
from repro.obs.trace import span
from repro.sim import Simulator
from repro.storage.device import Device, DeviceSpec

__all__ = ["LocalFS"]


class LocalFS(FileSystem):
    """A traditional local file system over one block device."""

    def __init__(
        self,
        sim: Simulator,
        device_spec: DeviceSpec,
        name: Optional[str] = None,
        flavor: str = "ext4",
        metadata_latency_s: float = 50e-6,
    ):
        super().__init__(sim, name or f"{flavor}:{device_spec.name}")
        self.flavor = flavor
        self.device = Device(sim, device_spec)
        self.metadata_latency_s = metadata_latency_s

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
        requests = self._request_count(size, request_size)
        yield from self._device_write(size, requests, label)
        self._release_replaced(path)
        self.store.put(path, data=data, nbytes=size)
        self.bytes_written += size
        return StoredObject(path=path, nbytes=size, data=data)

    def append(self, path: str, data: bytes, label: str = "write") -> Generator:
        """Process: extend an object, paying for the appended bytes only."""
        yield from self._fault_gate("write", path)
        yield from self._device_write(len(data), 1, label)
        self.store.append(path, data)
        self.bytes_written += len(data)
        return StoredObject(path=path, nbytes=len(data), data=data)

    def _device_write(
        self, size: int, requests: int, label: str, line: Optional[int] = None
    ) -> Generator:
        """Process: reserve ``size`` bytes (plus a ``line``), then pay one
        metadata operation and the device transfer of ``requests``
        requests, then the line's own request.  Nothing is stored yet; a
        device-level injected failure (or an abandoned write) releases the
        reservation so a retried write does not leak capacity."""
        total = size + (line or 0)
        self._reserve(0, total)
        try:
            yield self.sim.timeout(self.metadata_latency_s)
            yield from self.device.write(size, requests, label)
            if line is not None:
                yield from self.device.write(line, 1, label)
        except BaseException:
            self._release(0, total)
            raise

    def read(
        self,
        path: str,
        request_size: Optional[int] = None,
        label: str = "read",
    ) -> Generator:
        """Process: one object is a one-path span (same single request)."""
        objs = yield from self.read_span([path], request_size, label)
        return objs[0]

    def read_span(
        self,
        paths,
        request_size: Optional[int] = None,
        label: str = "read",
    ) -> Generator:
        """Process: coalesced read of several objects on the one device.

        The span pays a single metadata operation and one seek-amortized
        device transfer for its total size -- ADA's subset chunks are
        log-structured and adjacent, so the request-per-chunk tax of the
        sequential fallback disappears.  Fault decisions are taken once
        per span (it is one backend operation); payload effects apply to
        each object's returned copy.
        """
        if not paths:
            return []
        with span(
            self.sim, "fs.read_span",
            fs=self.name, paths=len(paths), first=paths[0],
        ):
            decision = yield from self._fault_gate("read", paths[0])
            sizes = []
            for path in paths:  # each path resolved once before the wait
                try:
                    sizes.append(self.store.entry(path).nbytes)
                except FileNotFoundInFSError:
                    missing = f"{self.name}: {path}"
                    raise FileNotFoundInFSError(missing) from None
            total = sum(sizes)
            yield self.sim.timeout(self.metadata_latency_s)
            requests = self._request_count(total, request_size)
            yield from self.device.read(total, requests=requests, label=label)
            self.bytes_read += total
            objs = []
            for path, size in zip(paths, sizes):  # and once after it
                data = self.store.entry(path).content()
                data = self._fault_payload(decision, "read", data)
                objs.append(StoredObject(path=path, nbytes=size, data=data))
            return objs

    def write_span(
        self,
        items,
        label: str = "write",
        append: Optional[Tuple[str, bytes]] = None,
    ) -> Generator:
        """Process: coalesced write of several objects to the one device.

        The write-behind mirror of :meth:`read_span`: one metadata
        operation and one seek-amortized device transfer cover the span's
        total size, so a batch of log-structured subset chunks stops
        paying the per-chunk seek tax; ``append`` (a window's index line)
        follows as its own device request under the same fault gate,
        metadata operation and reservation, so a read queued during the
        span is served before the line.  Capacity is reserved up front
        (``StorageFullError`` before any state changes, so the caller can
        spill the whole span) and nothing is stored until the line's
        request completes -- a fault on either request, or an abandoned
        write, leaves no partial objects and no line.
        """
        if not items:
            return []
        with span(
            self.sim, "fs.write_span",
            fs=self.name, paths=len(items), first=items[0][0],
        ):
            yield from self._fault_gate("write", items[0][0])
            payloads = [self._payload(payload) for _, payload in items]
            line = None if append is None else len(append[1])
            total = sum(size for _, size in payloads)
            # Span, then line.  Measured on serve_sharded_mixed (seeds 1-21)
            # against this split: a read-first device queue alone cut the
            # tail 11 % (~1 % more on top of the split), and the split
            # without the sharded front's write steer raised it to 37.5 ms.
            yield from self._device_write(total, 1, label, line)
            objs = []
            for (path, _), (data, size) in zip(items, payloads):
                self._release_replaced(path)
                self.store.put(path, data=data, nbytes=size)
                self.bytes_written += size
                objs.append(StoredObject(path=path, nbytes=size, data=data))
            if append is not None:
                self.store.append(*append)
                self.bytes_written += line
            return objs

    def device_backlog(self) -> Tuple[int, int]:
        return self.device.queued_ns, self.device.queued_writes

    # One device: an extent's capacity does not depend on where it starts.

    def _reserve(self, start: int, nbytes: int) -> None:
        self.device.allocate(nbytes)

    def _release(self, start: int, nbytes: int) -> None:
        self.device.free(nbytes)

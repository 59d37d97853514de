"""Common file-system interface.

Read/write are DES *processes* (generators to drive with ``yield from`` or
``Simulator.run_process``) so that device queuing, striping, and network
hops all play out in simulated time.  Their return value is a
:class:`StoredObject` carrying the object's size and -- for materialized
objects -- its bytes.

Synchronous metadata helpers (``exists``/``nbytes``/``listdir``/``data``)
are free of simulated cost; explicit metadata *operations* that the paper's
pipelines pay for (e.g. ADA's indexer lookup) are modeled where they occur.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Generator, List, NamedTuple, Optional, Tuple, Union

from repro.errors import StorageFullError
from repro.faults.plan import FaultDecision, FaultSite
from repro.fs.memfs import ObjectStore
from repro.sim import Simulator

__all__ = ["FileSystem", "Payload", "StoredObject"]

#: What a span write stores per object: its bytes, or -- for a size-only
#: (virtual) object of the paper-scale mode -- just its byte count.
Payload = Union[bytes, int]


class StoredObject(NamedTuple):
    """What a read returns: size always, content when materialized.

    ``tier``/``max_error`` surface the precision tier a read was served
    from (see :mod:`repro.core.lod`): ``"full"`` means exact bytes;
    ``"lod"`` means the coarse-quantized layer, with ``max_error`` the
    advertised per-atom-coordinate worst-case error bound.  Reads below
    the middleware's tier-selection layer always return ``"full"``.
    An immutable tuple: derive a variant with ``_replace``.
    """

    path: str
    nbytes: int
    data: Optional[bytes] = None
    tier: str = "full"
    max_error: Optional[float] = None

    @property
    def is_virtual(self) -> bool:
        return self.data is None


class FileSystem(FaultSite, ABC):
    """Base class for all simulated file systems."""

    site_kind = "fs"

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self.store = ObjectStore()
        self.bytes_read = 0.0
        self.bytes_written = 0.0

    # -- DES processes ------------------------------------------------------

    @abstractmethod
    def write(
        self,
        path: str,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
        request_size: Optional[int] = None,
        label: str = "write",
    ) -> Generator:
        """Process: persist an object (materialized or virtual)."""

    @abstractmethod
    def read(
        self,
        path: str,
        request_size: Optional[int] = None,
        label: str = "read",
    ) -> Generator:
        """Process: fetch an object; returns a :class:`StoredObject`."""

    def read_span(
        self,
        paths: List[str],
        request_size: Optional[int] = None,
        label: str = "read",
    ) -> Generator:
        """Process: read several objects as one coalesced span.

        The base implementation reads each path in turn (no coalescing
        win); backends with a single underlying device override it to
        charge one metadata operation and one seek-amortized transfer for
        the whole span.  Returns the :class:`StoredObject` list in
        ``paths`` order.
        """
        objs: List[StoredObject] = []
        for path in paths:
            obj = yield from self.read(
                path, request_size=request_size, label=label
            )
            objs.append(obj)
        return objs

    def write_span(
        self,
        items: List[Tuple[str, Payload]],
        label: str = "write",
        append: Optional[Tuple[str, bytes]] = None,
    ) -> Generator:
        """Process: persist several objects as one coalesced span.

        The write-side mirror of :meth:`read_span`: ``items`` is a list of
        ``(path, data)`` pairs bound for this backend, ``data`` the bytes
        or, for a size-only (virtual) object, its byte count; ``append``,
        a ``(path, data)`` extension, lands with them.  The base
        implementation writes each object in turn, then appends;
        single-device backends override it to charge one metadata
        operation and one seek-amortized transfer for the span's total
        size.  A mid-span failure must leave no partial objects behind
        (the caller retries the whole span), so the sequential fallback
        rolls back anything it already stored before re-raising.  Returns
        the :class:`StoredObject` list in ``items`` order.
        """
        objs: List[StoredObject] = []
        try:
            for path, payload in items:
                data, nbytes = self._payload(payload)
                obj = yield from self.write(path, data=data, nbytes=nbytes, label=label)
                objs.append(obj)
            if append is not None:
                yield from self.append(*append, label=label)
        except BaseException:
            for obj in objs:
                if self.store.exists(obj.path):
                    self.delete(obj.path)
            raise
        return objs

    def append(self, path: str, data: bytes, label: str = "write") -> Generator:
        """Process: extend an object (created when absent) by ``data``.

        What a log-structured writer (the PLFS index log) uses instead of
        rewriting the object: device backends override it to charge
        metadata latency, device time and capacity for the appended bytes
        only.  The base implementation rewrites the whole object (no
        append win).  All-or-nothing like :meth:`write`: a failed append
        leaves the object as it was.  Returns the appended extent as a
        :class:`StoredObject`.
        """
        old = self.store.data(path) if self.store.exists(path) else b""
        yield from self.write(path, data=old + data, label=label)
        return StoredObject(path=path, nbytes=len(data), data=data)

    # -- synchronous helpers --------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.store.exists(path)

    def nbytes(self, path: str) -> int:
        return self.store.nbytes(path)

    def data(self, path: str) -> bytes:
        return self.store.data(path)

    def listdir(self, prefix: str = "") -> List[str]:
        return self.store.listdir(prefix)

    def delete(self, path: str) -> int:
        """Remove an object and release its capacity; returns freed bytes."""
        freed = self.store.delete(path)
        self._release(0, freed)
        return freed

    def replace(self, path: str, data: bytes) -> int:
        """Swap an object's content for ``data``; returns the new size.

        A metadata-path operation like :meth:`delete` -- synchronous and
        free of simulated cost -- that keeps the capacity ledger exact:
        the old reservation is released and the new size reserved.
        """
        old = self._size(path)
        self._release(0, old)
        try:
            self._reserve(0, len(data))
        except StorageFullError:
            self._reserve(0, old)
            raise
        return self.store.put(path, data=data)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, objects={len(self.store)})"

    # -- fault injection ----------------------------------------------------

    def _fault_payload(
        self, decision: Optional[FaultDecision], op: str, data: Optional[bytes]
    ) -> Optional[bytes]:
        """Apply in-flight payload effects (bit flip / short read) to a read.

        Only the returned copy is perturbed -- the at-rest object stays
        intact, so checksum-triggered re-reads observe clean bytes.
        """
        if decision is None or data is None or self.faults is None:
            return data
        if decision.short_read and data:
            data = data[: self.faults.short_length(self.fault_site, op, len(data))]
        if decision.corrupt and data:
            data = self.faults.corrupt_payload(self.fault_site, op, data)
        return data

    def device_backlog(self) -> Tuple[int, int]:
        """``(queued_ns, queued_writes)``: the device ledgers of every
        request queued or in service below this file system, summed over
        its devices (:class:`~repro.storage.device.Device`).  A file
        system with no device has no backlog."""
        return 0, 0

    # -- shared internals -------------------------------------------------------

    def _reserve(self, start: int, nbytes: int) -> None:
        """Claim capacity for bytes ``[start, start + nbytes)`` of an object.

        Device backends override this and :meth:`_release` (the base file
        system has no capacity to account).  Raises ``StorageFullError``
        before claiming anything.
        """

    def _release(self, start: int, nbytes: int) -> None:
        """Give back what :meth:`_reserve` claimed for the same extent."""

    def _size(self, path: str) -> int:
        """Stored size of ``path``; 0 when there is no such object."""
        return self.store.nbytes(path) if self.store.exists(path) else 0

    def _release_replaced(self, path: str) -> None:
        """Release the object a write is about to replace, if any."""
        self._release(0, self._size(path))

    @staticmethod
    def _payload_size(data: Optional[bytes], nbytes: Optional[int]) -> int:
        if data is not None:
            return len(data)
        if nbytes is None:
            raise ValueError("write needs data or nbytes")
        return int(nbytes)

    @staticmethod
    def _payload(payload: Payload) -> Tuple[Optional[bytes], int]:
        """``(data, nbytes)`` of a span item's payload: the bytes, or no
        bytes and the count of a size-only object."""
        if isinstance(payload, int):
            return None, payload
        return payload, len(payload)

    @staticmethod
    def _request_count(nbytes: int, request_size: Optional[int]) -> int:
        if request_size is None or request_size <= 0 or nbytes <= 0:
            return 1
        return max(1, -(-nbytes // request_size))

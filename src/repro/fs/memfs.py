"""In-memory object store backing every simulated file system.

Content addressing is flat, S3-style: a path is a ``/``-separated key,
directories exist implicitly as key prefixes.  Objects may be *materialized*
(real bytes -- used by tests, examples, and the calibration runs) or
*virtual* (size-only -- used at paper scale where 2.6 TB of coordinates
cannot be allocated).  Both kinds flow through identical FS/timing code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import FileExistsInFSError, FileNotFoundInFSError

__all__ = ["ObjectStore"]


@dataclass
class _Entry:
    nbytes: int
    data: Optional[bytes]
    # Appended segments not yet joined into ``data`` (see ``append``).
    tail: List[bytes] = field(default_factory=list)


class ObjectStore:
    """Flat path -> object map with implicit directories."""

    def __init__(self) -> None:
        self._entries: Dict[str, _Entry] = {}

    @staticmethod
    def normalize(path: str) -> str:
        parts = [p for p in path.split("/") if p and p != "."]
        if not parts:
            raise FileNotFoundInFSError("empty path")
        return "/".join(parts)

    # -- mutation ---------------------------------------------------------

    def put(
        self,
        path: str,
        data: Optional[bytes] = None,
        nbytes: Optional[int] = None,
        overwrite: bool = True,
    ) -> int:
        """Store an object; returns its size.

        Pass ``data`` for a materialized object (size inferred) or just
        ``nbytes`` for a virtual one.
        """
        key = self.normalize(path)
        if data is None and nbytes is None:
            raise ValueError(f"put({path!r}): need data or nbytes")
        if data is not None and nbytes is not None and nbytes != len(data):
            raise ValueError(f"put({path!r}): nbytes {nbytes} != len(data)")
        if not overwrite and key in self._entries:
            raise FileExistsInFSError(key)
        size = len(data) if data is not None else int(nbytes)
        self._entries[key] = _Entry(nbytes=size, data=data)
        return size

    def append(self, path: str, data: bytes) -> int:
        """Extend an object (created when absent); returns its new size.

        The segment is only queued -- ``data()`` joins queued segments on
        the next read -- so a log that grows by many small appends is
        copied once per read, not once per append.  Appending to a
        virtual object grows its size and keeps it virtual.
        """
        key = self.normalize(path)
        entry = self._entries.get(key)
        if entry is None:
            return self.put(key, data=data)
        if entry.data is not None:
            entry.tail.append(data)
        entry.nbytes += len(data)
        return entry.nbytes

    def delete(self, path: str) -> int:
        """Remove an object; returns the freed size."""
        key = self.normalize(path)
        entry = self._entries.pop(key, None)
        if entry is None:
            raise FileNotFoundInFSError(key)
        return entry.nbytes

    # -- queries -----------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.normalize(path) in self._entries

    def nbytes(self, path: str) -> int:
        return self._get(path).nbytes

    def data(self, path: str) -> bytes:
        """Materialized content; raises for virtual objects."""
        entry = self._get(path)
        if entry.data is None:
            raise FileNotFoundInFSError(
                f"{path!r} is a virtual (size-only) object with no content"
            )
        if entry.tail:
            entry.data = b"".join([entry.data, *entry.tail])
            entry.tail.clear()
        return entry.data

    def is_virtual(self, path: str) -> bool:
        return self._get(path).data is None

    def listdir(self, prefix: str = "") -> List[str]:
        """Immediate children (names) under a directory prefix, sorted."""
        if prefix:
            root = self.normalize(prefix) + "/"
        else:
            root = ""
        children = set()
        for key in self._entries:
            if key.startswith(root):
                rest = key[len(root) :]
                children.add(rest.split("/", 1)[0])
        return sorted(children)

    def walk(self, prefix: str = "") -> List[str]:
        """Every object key under a prefix, sorted."""
        root = self.normalize(prefix) + "/" if prefix else ""
        return sorted(k for k in self._entries if k.startswith(root))

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def _get(self, path: str) -> _Entry:
        key = self.normalize(path)
        entry = self._entries.get(key)
        if entry is None:
            raise FileNotFoundInFSError(key)
        return entry

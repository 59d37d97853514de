"""POSIX-style virtual file system layer with ADA interposition.

Fig. 4's top layer: applications speak an ``open/read/write/close`` handle
API against mount points.  :class:`VFS` resolves paths through a mount
table; :class:`ADAInterposer` wraps a VFS so that *closing a written
target-application file* (``.xtc`` after its guiding ``.pdb``) triggers
ADA's ingest -- "ADA checks if a file to be written is generated by a
target application.  If so, the file will be pre-processed by ADA.
Otherwise, it will not be trapped" (paper §3.4).

The interposer keeps the guiding structure per directory: a ``.pdb``
closed in a directory becomes the structure for subsequent ``.xtc`` closes
there, matching the ``mol new foo.pdb`` / ``mol addfile bar.xtc`` pairing.
"""

from __future__ import annotations

import posixpath
from typing import TYPE_CHECKING, Dict, Generator, Optional, Tuple

from repro.errors import ConfigurationError, FileNotFoundInFSError
from repro.fs.base import FileSystem, StoredObject
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fs <-> core)
    from repro.core.middleware import ADA

#: Suffixes of the target application's (VMD's) files, which the
#: interposer traps; every other file passes through.
_TARGET_SUFFIXES = (".xtc", ".pdb", ".trr", ".dcd")

__all__ = ["FileHandle", "VFS", "ADAInterposer"]


class FileHandle:
    """An open file: a write buffer or a read cursor."""

    def __init__(self, vfs: "VFS", path: str, mode: str):
        if mode not in ("r", "w"):
            raise ConfigurationError(f"mode must be 'r' or 'w', got {mode!r}")
        self.vfs = vfs
        self.path = path
        self.mode = mode
        self._buffer = bytearray()
        self._cursor = 0
        self._data: Optional[bytes] = None
        self.closed = False

    def write(self, data: bytes) -> int:
        self._check("w")
        self._buffer.extend(data)
        return len(data)

    def read(self, size: int = -1) -> bytes:
        self._check("r")
        if self._data is None:
            self._data = self.vfs._read_now(self.path)
        if size < 0:
            out = self._data[self._cursor :]
            self._cursor = len(self._data)
        else:
            out = self._data[self._cursor : self._cursor + size]
            self._cursor += len(out)
        return out

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        if self.mode == "w":
            self.vfs._commit(self.path, bytes(self._buffer))

    def __enter__(self) -> "FileHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check(self, mode: str) -> None:
        if self.closed:
            raise ValueError(f"I/O on closed file {self.path!r}")
        if self.mode != mode:
            raise ValueError(f"{self.path!r} opened {self.mode!r}, not {mode!r}")


class VFS:
    """Mount-table path resolution over simulated file systems."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self._mounts: Dict[str, FileSystem] = {}

    def mount(self, mount_point: str, fs: FileSystem) -> None:
        point = self._normalize_mount(mount_point)
        if point in self._mounts:
            raise ConfigurationError(f"{point!r} already mounted")
        self._mounts[point] = fs

    def resolve(self, path: str) -> Tuple[FileSystem, str]:
        """Longest-prefix mount match; returns ``(fs, relative_path)``."""
        norm = posixpath.normpath("/" + path)
        best = None
        for point in self._mounts:
            if norm == point or norm.startswith(point.rstrip("/") + "/"):
                if best is None or len(point) > len(best):
                    best = point
        if best is None:
            raise FileNotFoundInFSError(f"no mount covers {path!r}")
        relative = norm[len(best) :].lstrip("/")
        if not relative:
            raise FileNotFoundInFSError(f"{path!r} is a mount point, not a file")
        return self._mounts[best], relative

    def open(self, path: str, mode: str = "r") -> FileHandle:
        if mode == "r":
            fs, rel = self.resolve(path)
            if not fs.exists(rel):
                raise FileNotFoundInFSError(path)
        return FileHandle(self, path, mode)

    def exists(self, path: str) -> bool:
        try:
            fs, rel = self.resolve(path)
        except FileNotFoundInFSError:
            return False
        return fs.exists(rel)

    def nbytes(self, path: str) -> int:
        fs, rel = self.resolve(path)
        return fs.nbytes(rel)

    @staticmethod
    def _normalize_mount(mount_point: str) -> str:
        return posixpath.normpath("/" + mount_point)

    # -- handle plumbing -----------------------------------------------------

    def _commit(self, path: str, data: bytes) -> None:
        fs, rel = self.resolve(path)
        self.sim.run_process(fs.write(rel, data=data))

    def _read_now(self, path: str) -> bytes:
        fs, rel = self.resolve(path)
        obj: StoredObject = self.sim.run_process(fs.read(rel))
        if obj.data is None:
            raise FileNotFoundInFSError(f"{path!r} is virtual; no content")
        return obj.data


class ADAInterposer(VFS):
    """A VFS whose target-application writes are trapped by ADA.

    Files under ``ada_mount`` are examined at close: a ``.pdb`` is stored
    *and* remembered as its directory's guiding structure; a trajectory
    file (``.xtc``/``.dcd``) is handed to :meth:`ADA.ingest` under that
    structure.  Everything else passes straight through to ADA's inactive
    backend, untouched.
    """

    def __init__(self, sim: Simulator, ada: "ADA", ada_mount: str = "/mnt/ada"):
        super().__init__(sim)
        self.ada = ada
        self.ada_mount = self._normalize_mount(ada_mount)
        self._structures: Dict[str, str] = {}  # directory -> pdb text
        self.trapped: Dict[str, object] = {}  # logical -> IngestReceipt

    def _under_ada(self, path: str) -> Optional[str]:
        """Relative path when ``path`` is under the ADA mount, else None."""
        norm = posixpath.normpath("/" + path)
        if norm.startswith(self.ada_mount.rstrip("/") + "/"):
            return norm[len(self.ada_mount) :].lstrip("/")
        return None

    def open(self, path: str, mode: str = "r") -> FileHandle:
        relative = self._under_ada(path)
        if relative is None:
            return super().open(path, mode)
        if mode == "r" and not self.exists(path):
            raise FileNotFoundInFSError(path)
        return FileHandle(self, path, mode)

    def exists(self, path: str) -> bool:
        relative = self._under_ada(path)
        if relative is None:
            return super().exists(path)
        if relative in self.trapped:
            return True
        backend = self.ada.plfs.backends[self.ada.placement.inactive_backend]
        return backend.exists(relative)

    def _commit(self, path: str, data: bytes) -> None:
        norm = posixpath.normpath("/" + path)
        if self._under_ada(path) is None:
            super()._commit(path, data)
            return
        relative = norm[len(self.ada_mount) :].lstrip("/")
        directory = posixpath.dirname(relative)
        lower = relative.lower()
        if not lower.endswith(_TARGET_SUFFIXES):
            self.sim.run_process(self.ada.passthrough_write(relative, data=data))
            return
        if lower.endswith(".pdb"):
            text = data.decode()
            self._structures[directory] = text
            self.sim.run_process(self.ada.passthrough_write(relative, data=data))
            return
        structure = self._structures.get(directory)
        if structure is None:
            raise ConfigurationError(
                f"trajectory {relative!r} arrived before any guiding .pdb "
                f"in {directory or '/'!r}"
            )
        receipt = self.sim.run_process(
            self.ada.ingest(relative, structure, data)
        )
        self.trapped[relative] = receipt

    def _read_now(self, path: str) -> bytes:
        norm = posixpath.normpath("/" + path)
        if norm.startswith(self.ada_mount.rstrip("/") + "/"):
            relative = norm[len(self.ada_mount) :].lstrip("/")
            if relative in self.trapped:
                # Whole-dataset read: subsets fetched and merged back to
                # full frames, returned as one raw container.
                from repro.formats.xtc import encode_raw

                merged = self.sim.run_process(self.ada.fetch_merged(relative))
                return encode_raw(merged)
            backend = self.ada.plfs.backends[self.ada.placement.inactive_backend]
            return backend.data(relative)
        return super()._read_now(path)

    def read_tag(self, path: str, tag: str) -> bytes:
        """The tag-extended read: ``open('/mnt/ada/bar.xtc', tag='p')``."""
        norm = posixpath.normpath("/" + path)
        relative = norm[len(self.ada_mount) :].lstrip("/")
        obj = self.sim.run_process(self.ada.fetch(relative, tag))
        return obj.data

"""PLFS-style container layer with multiple backends (paper §3.3, Fig. 6).

A logical file ``bar`` becomes a container ``bar.plfs/`` whose per-subset
data files may live on *different* backend file systems -- ADA's dispatcher
sends the protein subset to the SSD-backed FS and the MISC subset to the
HDD-backed FS.  The underlying file systems see ordinary files and "process
an assigned data subset as independent files without noticing that the
contents have been altered from the original" (paper §3.3).

An index object records, per subset chunk: tag, backend, path, size and
CRC-32.  It is an append-only record log, one JSON record per line, like
PLFS's own index droppings: a commit extends it by its own records
(``FileSystem.append``), so an index flush costs the same at chunk 10 000
as at chunk 10; a fresh client replays the log and numbers new chunks past
every stored one, orphans too.  In memory each container keeps one
chunk-ordered record list and a running byte total per tag, which is what
ADA's indexer consults to resolve a tag-selective read without walking the
container.

Appends go to ``metadata_backend`` (ADA's active tier), or to the caller's
``spill_to`` tier when it is full, so replay reads every backend's log.  A
torn final line (a crash mid-append) is uncommitted: replay stops at the
last complete line, and the next append to that log cuts the tail off.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    ContainerError,
    CorruptionError,
    StorageFullError,
    TagNotFoundError,
)
from repro.fs.base import FileSystem, Payload, StoredObject
from repro.sim import Simulator
from repro.units import MiB

__all__ = ["PLFS", "IndexRecord", "BULK_REQUEST_SIZE"]

_INDEX_NAME = "index"

#: ADA reads subset files in large sequential requests: its chunks are
#: log-structured and contiguous, so it never pays the per-small-request
#: tax a frame-by-frame reader incurs on a striped file system.
BULK_REQUEST_SIZE = 4 * MiB


@dataclass(frozen=True)
class IndexRecord:
    """One subset chunk inside a container.

    ``crc`` is the zlib CRC-32 of the chunk's bytes, or ``-1`` when the
    chunk is virtual (size-only) and there is nothing to checksum.
    """

    tag: str
    backend: str
    path: str
    nbytes: int
    chunk: int = 0
    crc: int = -1


@dataclass
class _Subset:
    """One tag's records in chunk order, with their running byte total."""

    records: List[IndexRecord] = field(default_factory=list)
    nbytes: int = 0

    def add(self, record: IndexRecord) -> None:
        # Writers register when their backend write lands, so a lower
        # chunk number can arrive after a higher one; it is never far
        # from the end.
        pos = len(self.records)
        while pos and self.records[pos - 1].chunk > record.chunk:
            pos -= 1
        self.records.insert(pos, record)
        self.nbytes += record.nbytes

    def find(self, chunk: int) -> Optional[IndexRecord]:
        """The record of one chunk number, or ``None``.  Chunk numbers
        are dense unless a write failed, and a gap only moves later
        chunks down, so the search starts at the chunk's own position."""
        records = self.records
        if 0 <= chunk < len(records) and records[chunk].chunk == chunk:
            return records[chunk]
        lo, hi = 0, min(len(records), chunk)
        while lo < hi:
            mid = (lo + hi) // 2
            if records[mid].chunk < chunk:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(records) and records[lo].chunk == chunk:
            return records[lo]
        return None

    def remove(self, record: IndexRecord) -> None:
        """Drop ``record`` (by identity; it is one of the newest)."""
        for pos in range(len(self.records) - 1, -1, -1):
            if self.records[pos] is record:
                del self.records[pos]
                self.nbytes -= record.nbytes
                return


def _encode_log(records: List[IndexRecord]) -> bytes:
    """Index-log lines for ``records`` (``vars`` of the flat dataclass is
    its field dict, without ``asdict``'s deep copy)."""
    return "".join(json.dumps(vars(r)) + "\n" for r in records).encode()


class PLFS:
    """Container layer multiplexing subsets across backend file systems."""

    def __init__(
        self,
        sim: Simulator,
        backends: Dict[str, FileSystem],
        metadata_backend: Optional[str] = None,
    ):
        if not backends:
            raise ConfigurationError("PLFS needs at least one backend")
        self.sim = sim
        self.backends = dict(backends)
        if metadata_backend not in (None, *self.backends):
            raise ConfigurationError(
                f"metadata backend {metadata_backend!r} is not a backend"
            )
        #: Where metadata writes go (``None``: a client that replays and
        #: reads every backend's log but cannot commit).
        self.metadata_backend = metadata_backend
        # logical -> tag -> that subset's records; a tag with no records
        # has no entry.
        self._indexes: Dict[str, Dict[str, _Subset]] = {}
        self._chunk_counters: Dict[tuple, int] = {}
        # (logical, backend) -> complete-line length of a log with a torn tail.
        self._torn: Dict[Tuple[str, str], int] = {}
        # Containers this client may claim chunk names in: created here, or
        # adopted (log replayed, orphan names stepped past) before a claim.
        self._adopted: set = set()

    # -- paths ------------------------------------------------------------

    @staticmethod
    def container_dir(logical: str) -> str:
        return f"{logical}.plfs"

    @classmethod
    def chunk_path(cls, logical: str, tag: str, chunk: int) -> str:
        return f"{cls.container_dir(logical)}/subset.{tag}/data.{chunk}"

    @classmethod
    def index_path(cls, logical: str) -> str:
        return f"{cls.container_dir(logical)}/{_INDEX_NAME}"

    # -- container lifecycle ---------------------------------------------------

    def metadata_homes(self, path: str) -> Dict[str, FileSystem]:
        """The backends holding an index log or label file ``path``: the
        metadata backend, the spill tier, or (an index log) both."""
        return {name: fs for name, fs in self.backends.items() if fs.exists(path)}

    def exists(self, logical: str) -> bool:
        return logical in self._indexes or bool(
            self.metadata_homes(self.index_path(logical))
        )

    def tags(self, logical: str) -> List[str]:
        """Distinct subset tags present in a container, sorted."""
        return sorted(self._index(logical))

    def container_index(self, logical: str) -> List[IndexRecord]:
        """Every index record of a container, by tag then chunk."""
        index = self._index(logical)
        return [r for tag in sorted(index) for r in index[tag].records]

    def subset_records(self, logical: str, tag: str) -> List[IndexRecord]:
        """One subset's records in chunk order (a snapshot: callers keep
        it across simulated time while writers append)."""
        return list(self._subset(logical, tag).records)

    def chunk_record(
        self, logical: str, tag: str, chunk: int
    ) -> Optional[IndexRecord]:
        """One chunk's record, or ``None`` when the subset has no such
        chunk -- a windowed reader's lookup, O(log chunks) at worst."""
        return self._subset(logical, tag).find(chunk)

    def chunk_records(
        self, logical: str, tag: str, chunks: Iterable[int]
    ) -> List[IndexRecord]:
        """The records of the requested chunks in chunk order, without
        copying the rest of the subset (a window of a paper-scale subset
        is a few chunks out of hundreds of thousands)."""
        find = self._subset(logical, tag).find
        wanted = sorted(set(chunks))
        records = [find(chunk) for chunk in wanted]
        if None in records:
            missing = [c for c, r in zip(wanted, records) if r is None]
            raise ContainerError(f"{logical}#{tag}: no chunk(s) {missing}")
        return records

    def last_chunk(self, logical: str, tag: str) -> int:
        """The subset's highest chunk number."""
        return self._subset(logical, tag).records[-1].chunk

    def subset_nbytes(self, logical: str, tag: str) -> int:
        return self._subset(logical, tag).nbytes

    def container_nbytes(self, logical: str) -> int:
        return sum(s.nbytes for s in self._index(logical).values())

    def _index(self, logical: str, create: bool = False) -> Dict[str, _Subset]:
        """The container's in-memory index, replayed from the on-disk
        log on first use by this client."""
        index = self._indexes.get(logical)
        if index is not None:
            return index
        logs = self.metadata_homes(self.index_path(logical))
        if not logs and not create:
            raise ContainerError(f"no container index for {logical!r}")
        index = {}
        for backend in logs:
            self._register_all(logical, index, self._read_log(logical, backend))
        self._indexes[logical] = index
        return index

    def _read_log(self, logical: str, backend: str) -> List[IndexRecord]:
        """The records of one backend's index log up to its last complete
        line; a torn tail is remembered for the next append to cut off."""
        log = self.backends[backend].data(self.index_path(logical))
        end = log.rfind(b"\n") + 1
        if end < len(log):
            self._torn[(logical, backend)] = end
        try:
            return [IndexRecord(**json.loads(line)) for line in log[:end].splitlines()]
        except (ValueError, TypeError) as exc:
            raise ContainerError(f"corrupt index for {logical!r}: {exc}") from exc

    def _register_all(
        self, logical: str, index: Dict[str, _Subset], records: Iterable[IndexRecord]
    ) -> None:
        """Index records and keep each tag's next chunk number above them."""
        for record in records:
            index.setdefault(record.tag, _Subset()).add(record)
            self._step_counter(logical, record.tag, record.chunk)

    def _step_counter(self, logical: str, tag: str, chunk: int) -> None:
        """Keep the tag's next chunk number above ``chunk`` -- an indexed
        record, or any ``subset.<tag>/data.N`` object replay finds on a
        backend -- so a client that replayed never reuses a stored name."""
        key = (logical, tag)
        self._chunk_counters[key] = max(self._chunk_counters.get(key, 0), chunk + 1)

    def _subset(self, logical: str, tag: str) -> _Subset:
        subset = self._index(logical).get(tag)
        if subset is None:
            raise TagNotFoundError(
                f"container {logical!r} has no subset tagged {tag!r} "
                f"(available: {self.tags(logical)})"
            )
        return subset

    def _adopt(self, logical: str) -> None:
        """Before this client's first claim in a container another client
        created: replay its log and step past every orphan -- a run that
        landed but whose commit never did -- so no stored name is reused.
        Once per container; a read-only client never walks the store, and
        a container nobody has written yet needs nothing."""
        if logical in self._adopted:
            return
        self._adopted.add(logical)
        if not self.exists(logical):
            return
        self._index(logical)
        prefix = self.container_dir(logical) + "/subset."
        for fs in self.backends.values():
            for key in fs.store.walk(self.container_dir(logical)):
                tag, _, chunk = key[len(prefix):].rpartition("/data.")
                if key.startswith(prefix) and chunk.isdigit():
                    self._step_counter(logical, tag, int(chunk))

    def _claim_chunk(self, logical: str, tag: str) -> int:
        """Next chunk number of a subset.  Claimed *before* the write (so
        concurrent writers pick distinct names) and never handed out
        twice: a failed write leaves a gap, not a reused name."""
        chunk = self._chunk_counters.get((logical, tag), 0)
        self._chunk_counters[(logical, tag)] = chunk + 1
        return chunk

    # -- DES processes ------------------------------------------------------------

    def verify_chunk(self, record: IndexRecord, obj: StoredObject) -> None:
        """Check one chunk's bytes against its index record.

        Raises :class:`CorruptionError` (a transient fault: corruption is
        injected in flight, so a re-read observes clean bytes) on a size or
        CRC-32 mismatch.  Virtual chunks (``crc == -1``) have nothing to
        verify.
        """
        if record.crc == -1 or obj.data is None:
            return
        if len(obj.data) != record.nbytes or zlib.crc32(obj.data) != record.crc:
            raise CorruptionError(
                f"plfs: checksum mismatch reading {record.path} "
                f"(got {len(obj.data)} B, expected {record.nbytes} B)"
            )

    def read_chunk_run(self, records: List[IndexRecord]) -> Generator:
        """Process: read one *run* of chunks living on a single backend.

        The only chunk read: the run goes to the backend as one span read
        in :data:`BULK_REQUEST_SIZE` requests -- one metadata operation,
        one seek-amortized transfer; a one-chunk run is one ordinary read.
        Every chunk is CRC-verified individually, so a span detects
        exactly the corruption per-chunk reads would; the caller retries
        the whole run.  Returns the chunks' :class:`StoredObject` list in
        ``records`` order.
        """
        if not records:
            return []
        backend_names = {r.backend for r in records}
        if len(backend_names) != 1:
            raise ConfigurationError(
                f"chunk run spans backends {sorted(backend_names)}"
            )
        objs = yield from self.backends[records[0].backend].read_span(
            [r.path for r in records],
            request_size=BULK_REQUEST_SIZE,
            label="plfs",
        )
        for record, obj in zip(records, objs):
            self.verify_chunk(record, obj)
        return objs

    def write_chunk_run(
        self,
        logical: str,
        entries: List[Tuple[str, Payload]],
        backend: str,
        coalesce: bool = True,
        commit: bool = False,
    ) -> Generator:
        """Process: land one *run* of chunks on a single backend.

        The write-side mirror of :meth:`read_chunk_run`: ``entries`` is a
        list of ``(tag, data)`` pairs, ``data`` bytes or a size-only
        chunk's byte count.  With ``coalesce`` the run reaches the backend
        as one span write -- one metadata operation, one seek-amortized
        transfer -- instead of one request per chunk.  Each chunk keeps its
        own index record and CRC-32, so tag-selective reads and per-chunk
        verification are unchanged.

        Without ``commit`` the run is *not indexed*: a window lands one run
        per backend, then :meth:`commit` indexes them all with one log
        append.  With it (a one-run window) the run's line rides its span
        write to ``backend``'s log, as a second device request after the
        span's (a read queued during the span goes between them), and the
        records are indexed once the line lands: no read sees the chunks
        before their line, and no landed-but-uncommitted state.  Chunk
        numbers are claimed up front (a failed run leaves counter gaps,
        never reused names), a failed run leaves no chunk object and no
        line, and ``StorageFullError`` propagates before anything is
        stored, so the caller can spill the *whole* run.  Returns the
        :class:`IndexRecord` list in ``entries`` order.
        """
        if backend not in self.backends:
            raise ConfigurationError(f"unknown backend {backend!r}")
        if not entries:
            return []
        self._adopt(logical)
        records = []
        for tag, payload in entries:
            data, nbytes = FileSystem._payload(payload)
            chunk = self._claim_chunk(logical, tag)
            records.append(IndexRecord(
                tag=tag, backend=backend,
                path=self.chunk_path(logical, tag, chunk), nbytes=nbytes,
                chunk=chunk, crc=zlib.crc32(data) if data is not None else -1,
            ))
        items = [(r.path, payload) for r, (_tag, payload) in zip(records, entries)]
        backend_fs = self.backends[backend]
        # Uncoalesced, the base class's span is one device write per chunk
        # (and deletes its stored prefix when one fails); one chunk is one
        # write either way.
        write_span = backend_fs.write_span if coalesce or len(items) == 1 else (
            partial(FileSystem.write_span, backend_fs)
        )
        # A committing run opens the index first: a replay after the write
        # would read the new line and then index the records a second time.
        index = self._index(logical, create=True) if commit else None
        line = self._index_line(logical, records, backend) if commit else None
        yield from write_span(items, label="plfs", append=line)
        if commit:
            self._register_all(logical, index, records)
        return records

    def fsck(self, logical: Optional[str] = None) -> Dict[str, list]:
        """Container integrity check.

        Cross-references index records against backend objects and
        reports:

        * ``missing`` -- indexed chunks whose backend object is gone;
        * ``size_mismatch`` -- chunks whose stored size disagrees with the
          index;
        * ``orphaned`` -- ``*.plfs/subset.*`` objects on a backend that no
          index references (a crashed dispatch, for instance).

        Returns ``{"missing": [...], "size_mismatch": [...],
        "orphaned": [...], "ok": bool}``.
        """
        logicals = (
            [logical]
            if logical is not None
            else sorted(
                {
                    key[: -len(".plfs/" + _INDEX_NAME)]
                    for fs in self.backends.values()
                    for key in fs.store.walk()
                    if key.endswith(".plfs/" + _INDEX_NAME)
                }
            )
        )
        missing, size_mismatch = [], []
        indexed_paths = set()
        for name in logicals:
            for record in self.container_index(name):
                indexed_paths.add((record.backend, record.path))
                backend = self.backends[record.backend]
                if not backend.exists(record.path):
                    missing.append(record.path)
                elif backend.nbytes(record.path) != record.nbytes:
                    size_mismatch.append(record.path)
        orphaned = []
        for backend_name, fs in self.backends.items():
            for key in fs.store.walk():
                if "/subset." not in key or ".plfs/" not in key:
                    continue
                if logical is not None and not key.startswith(
                    self.container_dir(logical) + "/"
                ):
                    continue
                if (backend_name, key) not in indexed_paths:
                    orphaned.append(f"{backend_name}:{key}")
        report = {
            "missing": sorted(missing),
            "size_mismatch": sorted(size_mismatch),
            "orphaned": sorted(orphaned),
        }
        report["ok"] = not (missing or size_mismatch or orphaned)
        return report

    def delete_container(self, logical: str) -> int:
        """Remove every chunk and the index of a container; returns freed
        bytes.  Synchronous (metadata-path operation, like ``rm -r``)."""
        freed = self.discard(self.container_index(logical))
        index_path = self.index_path(logical)
        for backend, fs in self.metadata_homes(index_path).items():
            fs.delete(index_path)
            self._torn.pop((logical, backend), None)
        self._indexes.pop(logical, None)
        self._adopted.discard(logical)
        for key in [k for k in self._chunk_counters if k[0] == logical]:
            del self._chunk_counters[key]
        return freed

    def commit(
        self,
        logical: str,
        records: List[IndexRecord],
        retry: Optional[Callable[[Callable[[], Generator]], Generator]] = None,
        spill_to: Optional[str] = None,
    ) -> Generator:
        """Process: index landed chunks with a single log append.

        The group commit of a write: every record is registered, then all
        of them are persisted by one append, in ``records`` order -- a
        :meth:`write_metadata` (``retry`` and ``spill_to`` are its).  An
        append that does not land (failed, exhausted, or abandoned) rolls
        the whole group back -- its records (by identity: concurrent
        writers may have registered behind them) and its chunk objects on
        every backend -- so the caller can rewrite it cleanly instead of
        duplicating subset bytes.
        """
        index = self._index(logical, create=True)
        self._register_all(logical, index, records)
        try:
            yield from self.write_metadata(
                partial(self._flush_index, logical, records), retry, spill_to
            )
        except BaseException:
            for record in records:
                subset = index[record.tag]
                subset.remove(record)
                if not subset.records:
                    del index[record.tag]
            self.discard(records)
            raise

    def write_metadata(
        self,
        write: Callable[[str], Generator],
        retry: Optional[Callable[[Callable[[], Generator]], Generator]] = None,
        spill_to: Optional[str] = None,
    ) -> Generator:
        """Process: ``write(backend)`` -- an index append or a label file --
        on the metadata backend, or on ``spill_to`` when that is full (the
        rule a data run spills by).  ``retry(op_factory)`` runs each try (a
        failed write stores nothing).  Returns the backend written."""
        if self.metadata_backend is None:
            raise ConfigurationError("no metadata_backend to write to")
        run = retry or (lambda op: op())
        try:
            yield from run(partial(write, self.metadata_backend))
            return self.metadata_backend
        except StorageFullError:
            if spill_to in (None, self.metadata_backend):
                raise
        yield from run(partial(write, spill_to))
        return spill_to

    def discard(self, records: Iterable[IndexRecord]) -> int:
        """Delete the chunk objects of ``records`` (a window that failed
        before or during its commit, or a deleted subset); returns freed
        bytes."""
        freed = 0
        for record in records:
            backend_fs = self.backends[record.backend]
            if backend_fs.exists(record.path):
                freed += backend_fs.delete(record.path)
        return freed

    def _flush_index(
        self, logical: str, new_records: List[IndexRecord], backend: str
    ) -> Generator:
        """Process: extend ``backend``'s index log by ``new_records``."""
        path, line = self._index_line(logical, new_records, backend)
        return self.backends[backend].append(path, line, label="plfs-index")

    def _index_line(
        self, logical: str, records: List[IndexRecord], backend: str
    ) -> Tuple[str, bytes]:
        """``(path, line)`` that extends ``backend``'s index log by
        ``records``, once the torn tail replay found there is cut off."""
        fs, path = self.backends[backend], self.index_path(logical)
        torn = self._torn.pop((logical, backend), None)
        if torn is not None:
            fs.replace(path, fs.data(path)[:torn])
        return path, _encode_log(records)

"""The I/O retriever: fetches requested subsets from the backends.

"The I/O retriever obtains the requested datasets by triggering file read
via the dataset paths that are passed by the indexer" (§3.3).  Every
subset read -- ``fetch``, ``fetch_all``, ``fetch_merged``,
``fetch_chunks``, the prefetcher -- takes one path:
:meth:`IORetriever.retrieve_chunks` groups the missed chunks into runs,
and each run is one retried :meth:`PLFS.read_chunk_run`, one backend
``read_span`` in bulk (multi-megabyte) requests, CRC-verified per chunk.
A failed run re-reads that run only.

A **tiered block cache** (:class:`~repro.fs.cache.BlockCache`), when
configured, sits in front: chunks are keyed ``(logical, tag, chunk)``,
hits serve at memory (L1) or SSD-class (L2) speed, verified reads are
admitted on the way out, and **request coalescing** rides with it --
chunks adjacent on one backend merge into a single span read (one
metadata op, one seek-amortized transfer).  Without a cache every run is
one chunk, the calibrated figure scenarios' timing.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence

from repro.errors import FaultError
from repro.faults.retry import Retrier
from repro.fs.base import StoredObject
from repro.fs.cache import BlockCache, BlockKey
from repro.fs.plfs import PLFS, IndexRecord
from repro.obs.metrics import MetricsRegistry, SIZE_BUCKETS
from repro.obs.trace import NULL_SPAN, span
from repro.sim import AllOf, Process, Simulator

__all__ = ["IORetriever"]


class IORetriever:
    """Reads subset chunks through PLFS with bulk request sizing.

    Every run of chunks reads under the retrier: a transient backend
    failure -- including a checksum mismatch detected by PLFS, since
    corruption is injected in flight -- triggers a backed-off re-read of
    that run, not of the whole subset.
    """

    def __init__(
        self,
        sim: Simulator,
        plfs: PLFS,
        retrier: Optional[Retrier] = None,
        cache: Optional[BlockCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ):
        self.sim = sim
        self.plfs = plfs
        self.retrier = retrier if retrier is not None else Retrier(sim)
        self.cache = cache
        # Registry-backed accounting.  ``metric_labels`` (e.g. ``{"shard":
        # name}``) keep per-retriever series distinct when several
        # retrievers share one registry.  The two byte counters are floats.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metric_labels = dict(metric_labels or {})
        extra = self.metric_labels
        self._metric_fields = {
            field: self.metrics.counter(f"retriever_{field}_total", **extra)
            for field in (
                "bytes",  # joined whole-subset reads
                "cache_served_bytes",
                "coalesced_runs",  # spans issued with > 1 chunk
                "coalesced_chunks",  # chunks that rode in those spans
                "requests_saved",  # backend requests coalescing removed
                "prefetched_chunks",  # chunks admitted speculatively
                "dedup_waits",  # demand reads that joined an in-flight read
            )
        }
        self._run_bytes = self.metrics.histogram(
            "retriever_run_bytes", bounds=SIZE_BUCKETS, **extra
        )
        #: Chunk reads currently in flight, so a demand read overlapping a
        #: prefetch (or a concurrent consumer) joins the existing read
        #: instead of double-issuing it on the device queue.
        self._inflight: Dict[BlockKey, Process] = {}
        self.metrics.gauge(
            "retriever_inflight_reads", fn=self._inflight_live, **extra
        )

    def _inflight_live(self) -> int:
        return sum(1 for p in self._inflight.values() if p.is_alive)

    @property
    def coalesce(self) -> bool:
        """Do adjacent chunks on one backend merge into one span read?
        They do exactly when a block cache is configured."""
        return self.cache is not None

    # -- subset retrieval ---------------------------------------------------

    def retrieve(self, logical: str, tag: str) -> Generator:
        """Process: read one tagged subset; returns a :class:`StoredObject`.

        :meth:`retrieve_chunks` plus the join.  Only the chunks are cached:
        the joined buffer is the caller's copy, so the cache holds each
        stored byte once and an append has nothing to invalidate.
        """
        with span(self.sim, "retriever.retrieve", logical=logical, tag=tag):
            objs = yield from self.retrieve_chunks(logical, tag)
            total = sum(o.nbytes for o in objs)
            if any(o.is_virtual for o in objs):
                data = None
            elif len(objs) == 1:
                data = objs[0].data  # zero-copy: no join for single-chunk subsets
            else:
                data = b"".join(o.data for o in objs)
            self._metric_fields["bytes"].inc(float(total))
            return StoredObject(path=f"{logical}#{tag}", nbytes=total, data=data)

    # -- chunk-granular retrieval (the pipelined primitive) -----------------

    def retrieve_chunks(
        self,
        logical: str,
        tag: str,
        chunks: Optional[Sequence[int]] = None,
        prefetched: bool = False,
    ) -> Generator:
        """Process: read selected chunks of one subset, cache-aware.

        ``chunks=None`` means every chunk.  One cache lookup serves all
        the hits (one wait); misses are grouped into backend-contiguous
        runs, each read (coalesced with a cache) under its own retry key,
        CRC verified per chunk, and admitted into the cache.  Returns the
        per-chunk :class:`StoredObject` list in chunk order -- callers
        that need the subset as one buffer join it themselves, callers
        that decode per chunk (``fetch_merged``, streaming playback)
        consume the buffers zero-copy.
        """
        if chunks is None:
            records = self.plfs.subset_records(logical, tag)
        else:
            records = self.plfs.chunk_records(logical, tag, chunks)
        with NULL_SPAN if self.sim.tracer is None else span(
            self.sim, "retriever.retrieve_chunks",
            logical=logical, tag=tag, chunks=len(records),
            prefetched=prefetched,
        ) as sp:
            out: List[Optional[StoredObject]] = [None] * len(records)
            to_read: List[int] = []  # positions in `records` that missed
            waits: Dict[int, Process] = {}  # positions someone else is reading
            if self.cache is None:
                to_read = list(range(len(records)))
            else:
                yield from self._serve_hits(
                    logical, tag, records, range(len(records)), out
                )
                misses = [pos for pos, obj in enumerate(out) if obj is None]
                for pos in misses:  # join a read in flight, or read it
                    key = (logical, tag, records[pos].chunk)
                    inflight = self._inflight.get(key)
                    if inflight is not None and inflight.is_alive:
                        waits[pos] = inflight
                    else:
                        to_read.append(pos)
            if sp is not NULL_SPAN:
                sp.tag(
                    cache_hits=len(records) - len(to_read) - len(waits),
                    joined=len(waits),
                )
            if to_read:
                runs = self._runs(records, to_read)
                procs: List[Process] = []
                for run in runs:
                    proc = self.sim.process(
                        self._read_run(logical, tag, records, run, prefetched),
                        name=f"retrieve:{logical}#{tag}:{records[run[0]].chunk}",
                    )
                    for pos in run:
                        self._inflight[(logical, tag, records[pos].chunk)] = proc
                    procs.append(proc)
                try:
                    results = yield AllOf(self.sim, procs)
                except BaseException:
                    # A failed run (FaultError escaping the AllOf barrier)
                    # must not leave dead Process objects in the dedup map:
                    # later demand reads would "join" a corpse and every
                    # entry would leak for the life of the retriever.
                    results = None
                    raise
                finally:
                    for run, proc in zip(runs, procs):
                        for pos in run:
                            key = (logical, tag, records[pos].chunk)
                            if self._inflight.get(key) is proc:
                                del self._inflight[key]
                for run, objs in zip(runs, results):
                    for pos, obj in zip(run, objs):
                        out[pos] = obj
            if waits:
                yield from self._join_inflight(logical, tag, records, waits, out)
            return out

    def _join_inflight(
        self,
        logical: str,
        tag: str,
        records: List[IndexRecord],
        waits: Dict[int, Process],
        out: List[Optional[StoredObject]],
    ) -> Generator:
        """Process: ride out another consumer's in-flight reads.

        A demand read overlapping a prefetch of the same chunks waits for
        that read to finish and serves from the freshly admitted blocks --
        a failed or evicted in-flight read degrades to a private re-read,
        so the wait can only ever save device traffic, never lose data.
        """
        self._metric_fields["dedup_waits"].inc(len(waits))
        with span(
            self.sim, "retriever.dedup_join",
            logical=logical, tag=tag, joined=len(waits),
            chunks=",".join(str(records[pos].chunk) for pos in sorted(waits)),
        ) as sp:
            pending = [p for p in set(waits.values()) if p.is_alive]
            if pending:
                try:
                    yield AllOf(self.sim, pending)
                except FaultError:
                    pass  # the owner saw the failure; we re-read below
            yield from self._serve_hits(logical, tag, records, list(waits), out)
            reread = [pos for pos in waits if out[pos] is None]
            for pos in reread:
                objs = yield from self._read_run(
                    logical, tag, records, [pos], False
                )
                out[pos] = objs[0]
            sp.tag(rereads=len(reread))

    def _serve_hits(
        self, logical: str, tag: str, records: List[IndexRecord],
        positions: Sequence[int], out: List[Optional[StoredObject]],
    ) -> Generator:
        """Process: one cache lookup for ``positions``; a hit fills its
        slot of ``out``."""
        blocks = yield from self.cache.lookup(
            [(logical, tag, records[pos].chunk) for pos in positions]
        )
        served = []
        for pos, block in zip(positions, blocks):
            if block is not None:
                out[pos] = StoredObject(
                    path=records[pos].path, nbytes=block.nbytes, data=block.data
                )
                served.append(block.nbytes)
        if served:  # one float add of the int sum: the per-block adds' total
            self._metric_fields["cache_served_bytes"].inc(float(sum(served)))

    def prefetch_chunks(
        self, logical: str, tag: str, chunks: Sequence[int]
    ) -> Generator:
        """Process: warm the block cache with chunks not yet resident.

        The speculative read path of the adaptive prefetcher: it pays the
        same backend costs as demand reads (same retry/CRC semantics) but
        marks admitted blocks ``prefetched`` so the cache can account for
        useful vs. wasted speculation.
        """
        if self.cache is None:
            return 0
        stored = self.plfs.chunk_record
        cold = [
            chunk
            for chunk in sorted(set(chunks))
            if stored(logical, tag, chunk) is not None
            and not self.cache.peek((logical, tag, chunk))
        ]
        if not cold:
            return 0
        objs = yield from self.retrieve_chunks(
            logical, tag, chunks=cold, prefetched=True
        )
        self._metric_fields["prefetched_chunks"].inc(len(objs))
        return len(objs)

    # -- internals ----------------------------------------------------------

    def _runs(
        self, records: List[IndexRecord], positions: List[int]
    ) -> List[List[int]]:
        """Group missed positions into coalescible runs.

        A run is a maximal stretch of positions that are consecutive in
        the subset's chunk order and whose chunks live on one backend --
        exactly the stretches that are adjacent in the backend's
        log-structured layout.  Without coalescing every chunk is its own
        run.
        """
        if not self.coalesce:
            return [[pos] for pos in positions]
        runs: List[List[int]] = []
        for pos in positions:
            if (
                runs
                and pos == runs[-1][-1] + 1
                and records[pos].backend == records[runs[-1][-1]].backend
            ):
                runs[-1].append(pos)
            else:
                runs.append([pos])
        return runs

    def _read_run(
        self,
        logical: str,
        tag: str,
        records: List[IndexRecord],
        run: List[int],
        prefetched: bool,
    ) -> Generator:
        """Process: one retried, CRC-verified read of a chunk run.

        Verified blocks are admitted into the cache *here*, before the
        run's process completes -- so a consumer that joined this read
        via :attr:`_inflight` finds them resident the moment it resumes.
        """
        run_records = [records[pos] for pos in run]
        first, last = run_records[0].chunk, run_records[-1].chunk
        key = f"read:{logical}#{tag}:{first}" + (
            f"-{last}" if last != first else ""
        )
        coalesced = len(run_records) > 1  # only ``_runs`` merges chunks
        with span(
            self.sim, "retriever.read_run",
            logical=logical, tag=tag,
            chunk=first if last == first else f"{first}-{last}",
            coalesced=coalesced, prefetched=prefetched,
        ) as sp:
            objs = yield from self.retrier.call(
                lambda: self.plfs.read_chunk_run(run_records), key=key
            )
            nbytes = sum(obj.nbytes for obj in objs)
            sp.tag(nbytes=nbytes)
            self._run_bytes.observe(nbytes)
        if coalesced:
            counters = self._metric_fields
            counters["coalesced_runs"].inc()
            counters["coalesced_chunks"].inc(len(run_records))
            counters["requests_saved"].inc(len(run_records) - 1)
        if self.cache is not None:
            for record, obj in zip(run_records, objs):
                self.cache.admit(
                    (logical, tag, record.chunk),
                    obj.nbytes,
                    data=obj.data,
                    prefetched=prefetched,
                )
        return objs

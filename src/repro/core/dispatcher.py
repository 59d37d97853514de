"""The I/O dispatcher: routes tagged subsets to their backends.

"Coupled with the tags and target storage path passed from the data
pre-processor, the I/O dispatcher sends each data subset to an underlying
file system" (§3.3).  Built on the PLFS container layer so each backend
sees ordinary files (Fig. 6); the placement policy picks flash for active
tags and rotation for the rest.

Flash is small (the cluster's SSD pool totals 1.5 TB): when the preferred
backend is full, the dispatcher *spills* the subset to the inactive
backend instead of failing the ingest -- the dataset stays complete, just
slower, and the spill is recorded for operators.  A subset that fits
neither backend still raises ``StorageFullError``.

The streaming ingest pipeline drives :meth:`dispatch_run`: one window's
``(tag, data)`` entries arrive in deterministic tag order, each backend's
entries are written as one coalesced chunk run (one metadata operation,
one seek-amortized transfer -- the write-side mirror of the retriever's
request coalescing), a ``StorageFullError`` spills that *whole* run to the
inactive backend, and one index append commits the window.  Traffic
counters live in the shared :class:`MetricsRegistry`, so the write path
shows up in the same Prometheus/JSON exports as the read path.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.tags import PlacementPolicy
from repro.errors import StorageFullError
from repro.faults.retry import Retrier
from repro.fs.plfs import PLFS, IndexRecord
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.trace import span
from repro.sim import AllOf, Simulator

__all__ = ["IODispatcher"]


class IODispatcher:
    """Writes per-tag subsets through PLFS according to a placement policy.

    Subset writes run under the retrier, so a transient backend failure is
    retried with backoff rather than failing the ingest.  ``StorageFullError``
    is *not* a fault -- it propagates straight to the spill logic.
    """

    def __init__(
        self,
        sim: Simulator,
        plfs: PLFS,
        placement: PlacementPolicy,
        retrier: Optional[Retrier] = None,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ):
        self.sim = sim
        self.plfs = plfs
        self.placement = placement
        self.retrier = retrier if retrier is not None else Retrier(sim)
        # Registry-backed accounting (mirrors the retriever).
        # ``metric_labels`` keep per-dispatcher series distinct when
        # several dispatchers (shards) share one registry.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metric_labels = dict(metric_labels or {})
        extra = self.metric_labels
        self._metric_fields = {
            "writes": self.metrics.counter("dispatcher_writes_total", **extra),
            "spill_count": self.metrics.counter(
                "dispatcher_spills_total", **extra
            ),
            "coalesced_runs": self.metrics.counter(
                "dispatcher_coalesced_runs_total", **extra
            ),  # chunk runs written as one span
            "coalesced_chunks": self.metrics.counter(
                "dispatcher_coalesced_chunks_total", **extra
            ),  # chunks that rode in those spans
            "requests_saved": self.metrics.counter(
                "dispatcher_requests_saved_total", **extra
            ),  # backend requests coalescing removed
        }
        #: tag -> dispatcher_bytes_total counter (created on first dispatch).
        #: Exact ints, counted once per chunk *after* its write (and any
        #: spill) finally succeeds: retried or spilled chunks never
        #: double-count.
        self._bytes_counters: Dict[str, Counter] = {}
        #: (logical, tag, preferred backend, actual backend) spill records.
        self.spills: List[Tuple[str, str, str, str]] = []

    def _count_bytes(self, tag: str, nbytes: int) -> None:
        counter = self._bytes_counters.get(tag)
        if counter is None:
            counter = self.metrics.counter(
                "dispatcher_bytes_total", tag=tag, **self.metric_labels
            )
            self._bytes_counters[tag] = counter
        counter.inc(int(nbytes))

    def dispatch(self, logical: str, subsets: Dict[str, bytes]) -> Generator:
        """Process: write every subset to its backend, backends in parallel."""
        return self._fan_out(logical, {t: (d, None) for t, d in subsets.items()})

    def dispatch_sequential(
        self, logical: str, subsets: Dict[str, bytes]
    ) -> Generator:
        """Process: write every subset one at a time, in tag order.

        The serial-ingest baseline: same chunk numbering, index records
        and index-log bytes as :meth:`dispatch_run` over the same subsets
        (tags claim chunks in sorted order either way), but one
        uncoalesced backend write -- and one index flush -- per chunk.
        """
        records = []
        for tag in sorted(subsets):
            record = yield from self._dispatch_one(logical, tag, subsets[tag], None)
            records.append(record)
        return records

    def dispatch_run(
        self,
        logical: str,
        entries: List[Tuple[str, bytes]],
        coalesce: bool = True,
    ) -> Generator:
        """Process: write one window's ``(tag, data)`` entries as one chunk
        run per backend plus one index append.

        Entries are grouped by the backend their tag places on (entry
        order kept inside a group) and each group is written via
        :meth:`PLFS.write_chunk_run` -- one span write when ``coalesce``
        is set.  Groups go out one after another; each retries alone and
        spills alone on ``StorageFullError``.  Then :meth:`PLFS.commit`
        indexes the whole window, in ``entries`` order, with a single
        retried append.  A group or append that fails for good (retries
        exhausted, a permanent fault, no room on either tier) rolls the
        window back: no record, no chunk object on any backend.  Counters
        move only once the window is committed.  Returns the
        :class:`IndexRecord` list in ``entries`` order.
        """
        if not entries:
            return []
        groups: Dict[str, List[int]] = {}
        for position, (tag, _data) in enumerate(entries):
            groups.setdefault(self.placement.backend_for(tag), []).append(
                position
            )
        records: List[Optional[IndexRecord]] = [None] * len(entries)
        landed: List[Tuple[str, List[IndexRecord], Optional[str]]] = []
        try:
            for backend, positions in groups.items():
                recs, spilled_to = yield from self._write_group(
                    logical, backend, [entries[i] for i in positions], coalesce
                )
                landed.append((backend, recs, spilled_to))
                for position, rec in zip(positions, recs):
                    records[position] = rec
        except BaseException:
            self.plfs.discard(rec for _, recs, _ in landed for rec in recs)
            raise
        yield from self.plfs.commit(
            logical, records,
            retry=lambda op: self.retrier.call(op, key=f"index:{logical}"),
        )
        counters = self._metric_fields
        for backend, recs, spilled_to in landed:
            if spilled_to is not None:
                for tag in sorted({rec.tag for rec in recs}):
                    self.spills.append((logical, tag, backend, spilled_to))
                    counters["spill_count"].inc()
            if coalesce and len(recs) > 1:
                counters["coalesced_runs"].inc()
                counters["coalesced_chunks"].inc(len(recs))
                counters["requests_saved"].inc(len(recs) - 1)
        counters["writes"].inc(len(records))
        for rec in records:
            self._count_bytes(rec.tag, rec.nbytes)
        return records

    def dispatch_virtual(
        self, logical: str, subset_sizes: Dict[str, int]
    ) -> Generator:
        """Process: dispatch size-only subsets (paper-scale modeled mode)."""
        return self._fan_out(logical, {t: (None, n) for t, n in subset_sizes.items()})

    def _fan_out(self, logical: str, subsets: Dict[str, tuple]) -> Generator:
        """Process: ``_dispatch_one`` each ``tag: (data, nbytes)`` in parallel."""
        procs = [
            self.sim.process(
                self._dispatch_one(logical, tag, data=data, nbytes=nbytes),
                name=f"dispatch:{logical}#{tag}",
            )
            for tag, (data, nbytes) in sorted(subsets.items())
        ]
        records = yield AllOf(self.sim, procs)
        return records

    def backend_for(self, tag: str) -> str:
        return self.placement.backend_for(tag)

    def _fallback_for(self, preferred: str) -> Optional[str]:
        if preferred != self.placement.inactive_backend:
            return self.placement.inactive_backend
        return None

    def _dispatch_one(
        self,
        logical: str,
        tag: str,
        data: Optional[bytes],
        nbytes: Optional[int],
    ) -> Generator:
        preferred = self.placement.backend_for(tag)
        fallback = self._fallback_for(preferred)

        def write(backend: str, kind: str) -> Generator:
            return self.retrier.call(
                lambda: self.plfs.write_subset(
                    logical, tag, backend=backend, data=data, nbytes=nbytes
                ),
                key=f"{kind}:{logical}#{tag}",
            )

        try:
            record: IndexRecord = yield from write(preferred, "write")
        except StorageFullError:
            if fallback is None:
                raise
            record = yield from write(fallback, "spill")
            self.spills.append((logical, tag, preferred, fallback))
            self._metric_fields["spill_count"].inc()
        self._metric_fields["writes"].inc()
        self._count_bytes(record.tag, record.nbytes)
        return record

    def _write_group(
        self,
        logical: str,
        preferred: str,
        entries: List[Tuple[str, bytes]],
        coalesce: bool,
    ) -> Generator:
        """Process: one retried, spillable chunk run of a window's backend
        group; returns ``(records, spilled_to)`` (``None`` when it landed
        on ``preferred``)."""
        fallback = self._fallback_for(preferred)
        first, last = entries[0][0], entries[-1][0]
        tag_span = first if last == first else f"{first}-{last}"
        do_coalesce = coalesce and len(entries) > 1

        def write(backend: str, kind: str) -> Generator:
            return self.retrier.call(
                lambda: self.plfs.write_chunk_run(
                    logical, entries, backend=backend, coalesce=do_coalesce
                ),
                key=f"{kind}:{logical}#{tag_span}:{len(entries)}",
            )

        with span(
            self.sim, "dispatcher.write_run",
            logical=logical, tags=tag_span, chunks=len(entries),
            backend=preferred, coalesced=do_coalesce,
        ) as sp:
            try:
                recs: List[IndexRecord] = yield from write(preferred, "write")
            except StorageFullError:
                if fallback is None:
                    raise
                recs = yield from write(fallback, "spill")
                sp.tag(spilled_to=fallback)
                return recs, fallback
        return recs, None

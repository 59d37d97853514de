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

Every write is one :meth:`IODispatcher.dispatch_run`: an ingest's (or
stream window's) ``(tag, data)`` entries land as one coalesced chunk run
per backend (one metadata operation, one seek-amortized transfer -- the
write-side mirror of the retriever's request coalescing), the backends in
parallel; a ``StorageFullError`` spills that *whole* run to the inactive
backend, and one index append commits every run or none (the append
spills the same way when the metadata backend is full; a lone run on the
metadata backend carries it in its own span write).  Traffic
counters live in the shared :class:`MetricsRegistry`, so the write path
shows up in the same Prometheus/JSON exports as the read path.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.core.tags import PlacementPolicy
from repro.errors import StorageFullError
from repro.faults.retry import Retrier
from repro.fs.base import Payload
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

    def dispatch_run(
        self,
        logical: str,
        entries: List[Tuple[str, Payload]],
        coalesce: bool = True,
    ) -> Generator:
        """Process: write ``(tag, data)`` entries (``data`` bytes, or an
        int byte count for a size-only chunk) as one chunk run per backend
        plus one index append.

        Entries are grouped by the backend their tag places on (entry
        order kept inside a group); each group is one
        :meth:`PLFS.write_chunk_run` (one span write when ``coalesce`` is
        set), run as its own process under one barrier, retried and
        spilled alone.  Once every group has landed or failed, one that
        failed for good (retries exhausted, a permanent fault, no room on
        either tier) rolls the window back: no record, no chunk object on
        any backend.  Otherwise :meth:`PLFS.commit` indexes the window, in
        ``entries`` order, with a single retried append -- unless the
        window is one group that landed on the metadata backend, whose
        index line rode (and retried with) its span.  Abandoning the
        dispatch (interrupt, ``close``) stops the groups still writing and
        deletes what landed uncommitted.  Counters move only once the
        window is committed.  Returns the :class:`IndexRecord` list in
        ``entries`` order.
        """
        if not entries:
            return []
        groups: Dict[str, List[int]] = {}
        for position, (tag, _data) in enumerate(entries):
            groups.setdefault(self.placement.backend_for(tag), []).append(
                position
            )
        alone = len(groups) == 1
        procs = [
            self.sim.process(
                self._write_group(
                    logical, backend, [entries[i] for i in positions], coalesce, alone
                ),
                name=f"dispatch:{logical}@{backend}",
            )
            for backend, positions in groups.items()
        ]
        try:
            outcomes = yield AllOf(self.sim, procs)
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
        except BaseException:
            for proc in procs:
                proc.interrupt("window rolled back")  # no-op once finished
            self.plfs.discard(
                rec for proc in procs
                if isinstance(proc.value, tuple) and not proc.value[2]
                for rec in proc.value[0]
            )
            raise
        records: List[Optional[IndexRecord]] = [None] * len(entries)
        for positions, (recs, *_) in zip(groups.values(), outcomes):
            for position, rec in zip(positions, recs):
                records[position] = rec
        if not outcomes[0][2]:  # a lone group may have committed in its run
            yield from self.plfs.commit(
                logical, records,
                retry=lambda op: self.retrier.call(op, key=f"index:{logical}"),
                spill_to=self.placement.inactive_backend,
            )
        counters = self._metric_fields
        for backend, (recs, spilled_to, _) in zip(groups, outcomes):
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

    #: Alias kept because ``benchmarks/e2e/trace.py`` instruments this name.
    dispatch = dispatch_run

    def backend_for(self, tag: str) -> str:
        return self.placement.backend_for(tag)

    def _write_group(
        self,
        logical: str,
        preferred: str,
        entries: List[Tuple[str, Payload]],
        coalesce: bool,
        alone: bool,
    ) -> Generator:
        """Process: one retried, spillable chunk run of a window's backend
        group; returns ``(records, spilled_to, committed)`` (``None`` when
        it landed on ``preferred``; ``committed`` when the group is
        ``alone`` in the window and its index line rode the span) -- or
        the exception it failed with, so the window's barrier waits for
        every group before rolling back."""
        inactive = self.placement.inactive_backend
        fallback = inactive if preferred != inactive else None
        first, last = entries[0][0], entries[-1][0]
        tag_span = first if last == first else f"{first}-{last}"
        do_coalesce = coalesce and len(entries) > 1

        def write(backend: str, kind: str) -> Generator:
            commit = alone and backend == self.plfs.metadata_backend
            recs = yield from self.retrier.call(
                lambda: self.plfs.write_chunk_run(
                    logical, entries, backend, do_coalesce, commit
                ),
                key=f"{kind}:{logical}#{tag_span}:{len(entries)}",
            )
            return recs, commit

        try:
            with span(
                self.sim, "dispatcher.write_run",
                logical=logical, tags=tag_span, chunks=len(entries),
                backend=preferred, coalesced=do_coalesce,
            ) as sp:
                try:
                    recs, committed = yield from write(preferred, "write")
                except StorageFullError:
                    if fallback is None:
                        raise
                    recs, committed = yield from write(fallback, "spill")
                    sp.tag(spilled_to=fallback)
                    return recs, fallback, committed
            return recs, None, committed
        except Exception as exc:  # dispatch_run re-raises it
            return exc

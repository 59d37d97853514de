"""The I/O determinator (paper §3.3): indexer + dispatcher + retriever.

"The core idea of the I/O determinator is to provide a way to judiciously
manage the I/O load of an application in storage nodes."  It is the
primary storage interface of ADA: writes go through the dispatcher to
policy-chosen backends; tag-selective reads resolve through the indexer
and stream through the retriever.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

from repro.core.dispatcher import IODispatcher
from repro.core.indexer import Indexer
from repro.core.ingest import IngestPipelineConfig
from repro.core.retriever import IORetriever
from repro.core.tags import PlacementPolicy
from repro.faults.retry import Retrier, RetryPolicy, RetryStats
from repro.fs.base import Payload, StoredObject
from repro.fs.cache import BlockCache
from repro.fs.plfs import PLFS
from repro.obs.metrics import MetricsRegistry
from repro.sim import Simulator

__all__ = ["IODeterminator"]


class IODeterminator:
    """ADA's storage interface, composed per Fig. 5.

    One :class:`Retrier` (and its :class:`RetryStats` counters) is shared
    by the dispatcher and retriever, so operators see a single set of
    ``retry_*`` series for the determinator's I/O.
    """

    def __init__(
        self,
        sim: Simulator,
        plfs: PLFS,
        placement: PlacementPolicy,
        retry_policy: Optional[RetryPolicy] = None,
        block_cache: Optional[BlockCache] = None,
        serial_requests: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        metric_labels: Optional[Dict[str, str]] = None,
    ):
        self.sim = sim
        self.plfs = plfs
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metric_labels = dict(metric_labels or {})
        self.retrier = Retrier(
            sim,
            policy=retry_policy,
            stats=RetryStats(
                metrics=self.metrics, metric_labels=self.metric_labels
            ),
        )
        self.indexer = Indexer(sim, plfs)
        self.dispatcher = IODispatcher(
            sim, plfs, placement, retrier=self.retrier,
            metrics=self.metrics, metric_labels=self.metric_labels,
        )
        self.retriever = IORetriever(
            sim, plfs, retrier=self.retrier, cache=block_cache,
            serial_requests=serial_requests,
            metrics=self.metrics, metric_labels=self.metric_labels,
        )

    # -- write path ---------------------------------------------------------

    def store(
        self,
        logical: str,
        subsets: Dict[str, Payload],
        config: Optional[IngestPipelineConfig] = None,
    ) -> Generator:
        """Process: write one ingest's or stream window's subsets (bytes,
        or int byte counts in the size-only mode); returns their index
        records in sorted-tag order.

        The write schedule of both data planes: one
        :meth:`IODispatcher.dispatch_run`, coalesced unless
        ``config.coalesce`` is off -- or, for the serial baseline
        (``config.pipelined`` off), one uncoalesced ``dispatch_run`` per
        chunk.  Tags go out sorted either way, so every schedule stores
        the same chunk names and index lines.
        """
        entries = [(tag, subsets[tag]) for tag in sorted(subsets)]
        if config is not None and not config.pipelined:
            runs, coalesce = [[entry] for entry in entries], False
        else:
            runs, coalesce = [entries], config is None or config.coalesce
        records = []
        for run in runs:
            records += yield from self.dispatcher.dispatch_run(logical, run, coalesce)
        return records

    #: Alias kept because ``benchmarks/e2e/trace.py`` instruments this name.
    store_run = store

    # -- read path -----------------------------------------------------------

    def fetch(self, logical: str, tag: str) -> Generator:
        """Process: indexer lookup, then subset retrieval."""
        yield from self.indexer.lookup(logical, tag)
        obj: StoredObject = yield from self.retriever.retrieve(logical, tag)
        return obj

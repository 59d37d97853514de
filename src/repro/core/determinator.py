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
from repro.core.retriever import IORetriever
from repro.core.tags import PlacementPolicy
from repro.faults.retry import Retrier, RetryPolicy, RetryStats
from repro.fs.base import StoredObject
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
        coalesce: bool = False,
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
            coalesce=coalesce, serial_requests=serial_requests,
            metrics=self.metrics, metric_labels=self.metric_labels,
        )

    # -- write path ---------------------------------------------------------

    def store(self, logical: str, subsets: Dict[str, bytes]) -> Generator:
        """Process: dispatch materialized subsets to their backends."""
        return self.dispatcher.dispatch(logical, subsets)

    def store_sequential(
        self, logical: str, subsets: Dict[str, bytes]
    ) -> Generator:
        """Process: dispatch subsets one at a time (serial-ingest baseline)."""
        return self.dispatcher.dispatch_sequential(logical, subsets)

    def store_run(
        self, logical: str, subsets: Dict[str, bytes], coalesce: bool = True
    ) -> Generator:
        """Process: dispatch one window's subsets as one coalesced chunk
        run per backend and one index append.

        Tags go out in sorted order (the same chunk-claim order and index
        lines as the serial baseline).
        """
        entries = [(tag, subsets[tag]) for tag in sorted(subsets)]
        return self.dispatcher.dispatch_run(logical, entries, coalesce=coalesce)

    def store_virtual(self, logical: str, subset_sizes: Dict[str, int]) -> Generator:
        """Process: dispatch size-only subsets (modeled mode)."""
        return self.dispatcher.dispatch_virtual(logical, subset_sizes)

    # -- read path -----------------------------------------------------------

    def fetch(self, logical: str, tag: str) -> Generator:
        """Process: indexer lookup, then subset retrieval."""
        yield from self.indexer.lookup(logical, tag)
        obj: StoredObject = yield from self.retriever.retrieve(logical, tag)
        return obj

    def fetch_all(self, logical: str) -> Generator:
        """Process: retrieve every subset of a container concurrently."""
        yield from self.indexer.lookup_all(logical)
        objs = yield from self.retriever.retrieve_all(logical)
        return objs

    # -- metadata ---------------------------------------------------------------

    def tags(self, logical: str) -> list:
        return self.plfs.tags(logical)

    def subset_nbytes(self, logical: str, tag: str) -> int:
        return self.plfs.subset_nbytes(logical, tag)

    def container_nbytes(self, logical: str) -> int:
        return self.plfs.container_nbytes(logical)

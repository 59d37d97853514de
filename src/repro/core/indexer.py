"""The indexer: tag -> dataset paths on the underlying file systems.

"When users send data queries for certain groups of datasets, the indexer
uses tags from the queries to look for paths of datasets on the underlying
file systems and passes them to the I/O retriever" (§3.2).  The lookup has
a small but real cost -- it is why D-ADA(all) retrieval trails D-ext4
slightly in Fig. 7a -- charged as simulated time per query that reads
storage: a single-node read the block cache holds whole skips it.
"""

from __future__ import annotations

from typing import Generator, Optional, Sequence

from repro.fs.plfs import PLFS
from repro.sim import Simulator

__all__ = ["Indexer"]


class Indexer:
    """Resolves tag queries against PLFS container indexes."""

    def __init__(self, sim: Simulator, plfs: PLFS, lookup_latency_s: float = 2e-3):
        self.sim = sim
        self.plfs = plfs
        self.lookup_latency_s = lookup_latency_s
        self.lookups = 0

    def lookup(
        self, logical: str, tag: str, chunks: Optional[Sequence[int]] = None
    ) -> Generator:
        """Process: resolve one tag to its chunk records (charges latency);
        with ``chunks``, to the records of that window only."""
        yield self.sim.timeout(self.lookup_latency_s)
        self.lookups += 1
        if chunks is not None:
            return self.plfs.chunk_records(logical, tag, chunks)
        return self.plfs.subset_records(logical, tag)

    def lookup_all(self, logical: str) -> Generator:
        """Process: resolve every tag of a container."""
        yield self.sim.timeout(self.lookup_latency_s)
        self.lookups += 1
        return {
            tag: self.plfs.subset_records(logical, tag)
            for tag in self.plfs.tags(logical)
        }

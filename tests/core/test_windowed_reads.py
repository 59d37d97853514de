"""A windowed read costs O(window), not O(subset).

One ``fetch_chunks`` used to copy the subset's whole record list at the
admission estimate, the indexer, the retriever and the prefetcher (twice
more when a prefetch went out) -- unnoticeable at 16 chunks, 625 k
elements a copy at the paper's 5 M frames.  Counted, not timed: with
``PLFS.subset_records`` instrumented, the same windows on a 16-chunk and
a 4096-chunk subset copy the same number of records (none).
"""

import pytest

from repro.core import ADA
from repro.errors import ContainerError
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.fs.plfs import PLFS
from repro.serve import ServeFront
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB

LOGICAL, TAG = "long.xtc", "p"
WINDOWS = ([0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11])


def _front(nchunks: int) -> ServeFront:
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        block_cache=BlockCache(sim),
        prefetch=True,
    )
    records = sim.run_process(
        ada.plfs.write_chunk_run(
            LOGICAL, [(TAG, bytes([i % 251]) * 64) for i in range(nchunks)],
            backend="ssd",
        )
    )
    sim.run_process(ada.plfs.commit(LOGICAL, records))
    front = ServeFront(ada)
    front.register("viewer", prefetch_budget_bytes=1 << 20)
    return front


def _records_copied(monkeypatch, nchunks: int):
    """Drive sequential windows (so prefetches go out too); return the
    records copied by whole-subset snapshots, and what was served."""
    front = _front(nchunks)
    copied = []
    original = PLFS.subset_records

    def counting(self, logical, tag):
        records = original(self, logical, tag)
        copied.append(len(records))
        return records

    monkeypatch.setattr(PLFS, "subset_records", counting)
    session = front.session("viewer")

    def playback():
        served = []
        for window in WINDOWS:
            objs = yield from session.fetch_chunks(LOGICAL, TAG, window)
            served.append([obj.data for obj in objs])
        return served

    served = front.sim.run_process(playback())
    # the speculative path ran too
    assert front.ada.metrics.value("prefetch_issued_total") == 1
    assert front.ada.block_cache.peek((LOGICAL, TAG, 15))
    return sum(copied), served


def test_windowed_read_copies_no_more_records_on_a_long_subset(monkeypatch):
    short, served_short = _records_copied(monkeypatch, 16)
    long, served_long = _records_copied(monkeypatch, 4096)
    assert short == long == 0
    assert served_short == served_long  # the same chunks either way


def test_missing_chunk_is_still_a_container_error():
    front = _front(16)
    with pytest.raises(ContainerError, match=r"no chunk\(s\) \[16, 99\]"):
        front.sim.run_process(
            front.ada.fetch_chunks(LOGICAL, TAG, [15, 16, 99])
        )
    # Admission sizing stays tolerant: absent chunks weigh nothing.
    assert front._estimate_cost(
        "fetch_chunks", {"logical": LOGICAL, "tag": TAG, "chunks": [15, 99]}
    ) == 64

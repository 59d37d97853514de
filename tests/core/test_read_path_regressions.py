"""Regression tests for the read-path bugfix sweep.

* A failed coalesced run must purge its :attr:`IORetriever._inflight`
  entries -- before the fix, a FaultError escaping the AllOf barrier left
  dead Process objects in the dedup map for the life of the retriever.
* The prefetcher must clamp speculative targets at the subset's last
  chunk -- before the fix, only the ``c >= 0`` bound existed, so
  end-of-stream predictions issued doomed windows and inflated the
  ``issued``/``chunks_requested`` counters.
* A cache-less multi-chunk read retries per chunk -- before the single
  read path, one transient fault on one chunk re-read the whole subset.
* The multi-tenant sweep: per-tenant cache accounting must survive
  whole-subset reads and cross-tenant dedup (charge follows use), and the prefetcher's stride state and in-flight cap must be
  keyed per tenant, not global.
"""

import pytest

from repro.core import ADA
from repro.core.prefetch import MAX_INFLIGHT
from repro.errors import FaultError, PermanentFaultError
from repro.faults.plan import TRANSIENT, FaultDecision
from repro.fs.cache import BlockCache
from repro.fs.localfs import LocalFS
from repro.serve import TenantBlockCache
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

LOGICAL = "reg.xtc"
NCHUNKS = 10


def _chunked_ada(prefetch: bool = False, cache: bool = True):
    from repro.formats.xtc import encode_raw

    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        block_cache=BlockCache(sim) if cache else None,
        prefetch=prefetch,
    )
    frames_per_chunk = 3
    workload = build_workload(
        natoms=240, nframes=NCHUNKS * frames_per_chunk, seed=9
    )
    blobs = [
        encode_raw(
            workload.trajectory.slice_frames(
                i * frames_per_chunk, (i + 1) * frames_per_chunk
            )
        )
        for i in range(NCHUNKS)
    ]
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, blobs[0]))
    for blob in blobs[1:]:
        sim.run_process(ada.ingest_append(LOGICAL, blob))
    return sim, ada


# -- inflight purge on failed coalesced runs --------------------------------


def test_failed_coalesced_run_purges_inflight_map(monkeypatch):
    sim, ada = _chunked_ada()
    retriever = ada.determinator.retriever
    original = ada.plfs.read_chunk_run

    def doomed(records, **kwargs):
        raise PermanentFaultError("injected: backend gone")
        yield  # pragma: no cover - makes this a generator function

    monkeypatch.setattr(ada.plfs, "read_chunk_run", doomed)
    with pytest.raises(FaultError):
        sim.run_process(ada.fetch_chunks(LOGICAL, "p", [0, 1, 2, 3]))
    # The fix: the finally-block purge leaves no dead Process behind.
    assert retriever._inflight == {}

    # And the retriever is fully usable once the backend recovers.
    monkeypatch.setattr(ada.plfs, "read_chunk_run", original)
    objs = sim.run_process(ada.fetch_chunks(LOGICAL, "p", [0, 1, 2, 3]))
    assert len(objs) == 4 and all(o.nbytes > 0 for o in objs)
    assert retriever._inflight == {}


def test_successful_run_also_leaves_inflight_empty():
    sim, ada = _chunked_ada()
    sim.run_process(ada.fetch_chunks(LOGICAL, "p", list(range(NCHUNKS))))
    assert ada.determinator.retriever._inflight == {}


# -- cache-less reads retry per chunk ----------------------------------------


class _FailNthRead:
    """A fault plan failing the ``nth`` read it sees, once, transiently."""

    def __init__(self, nth):
        self.nth, self.reads = nth, 0

    def decide(self, site, op):
        if op != "read":
            return FaultDecision()
        self.reads += 1
        return FaultDecision(error=TRANSIENT if self.reads == self.nth else None)


def test_cacheless_fetch_retries_only_the_faulted_chunk():
    sim, ada = _chunked_ada(cache=False)
    ssd = ada.plfs.backends["ssd"]

    def device_reads():
        return ada.metrics.value(
            "device_ops_total", device=ssd.device.name, op="read"
        )

    clean = sim.run_process(ada.fetch(LOGICAL, "p"))
    before = device_reads()
    assert before == NCHUNKS
    ssd.faults = _FailNthRead(3)
    obj = sim.run_process(ada.fetch(LOGICAL, "p"))
    assert obj.data == clean.data
    assert ada.metrics.value("retry_retries_total") == 1
    # Only the faulted chunk is re-read, and its failed attempt never
    # reached the device; a whole-subset retry costs 2 * NCHUNKS - 1.
    assert device_reads() - before == NCHUNKS


# -- prefetch end-of-stream clamp -------------------------------------------


def test_prefetch_prediction_clamped_at_last_chunk():
    sim, ada = _chunked_ada(prefetch=True)
    prefetcher = ada.prefetcher
    # Train a stride-3 pattern whose next window straddles the end:
    # after [6..9] the prediction is chunks 9..12, but only 9 exists...
    # stride confirms on the third same-stride step.
    prefetcher.observe(LOGICAL, "p", [0, 1, 2, 3])
    prefetcher.observe(LOGICAL, "p", [3, 4, 5, 6])
    proc = prefetcher.observe(LOGICAL, "p", [6, 7, 8, 9])
    assert proc is not None  # ...so a (clamped) window still launches
    assert prefetcher.metrics.value("prefetch_issued_total") == 1
    # chunk 9 only
    assert prefetcher.metrics.value("prefetch_chunks_requested_total") == 1
    # 10, 11, 12 never issued
    assert prefetcher.metrics.value("prefetch_suppressed_eof_total") == 3
    sim.run()
    assert ada.block_cache.peek((LOGICAL, "p", 9))


def test_prefetch_prediction_entirely_past_eof_is_suppressed():
    sim, ada = _chunked_ada(prefetch=True)
    prefetcher = ada.prefetcher
    prefetcher.observe(LOGICAL, "p", [2, 3])
    prefetcher.observe(LOGICAL, "p", [6, 7])
    proc = prefetcher.observe(LOGICAL, "p", [10, 11])  # hypothetical window
    assert proc is None
    assert prefetcher.metrics.value("prefetch_issued_total") == 0
    assert prefetcher.metrics.value("prefetch_chunks_requested_total") == 0
    # 14 and 15, both past the end
    assert prefetcher.metrics.value("prefetch_suppressed_eof_total") == 2


# -- per-tenant cache accounting (charge follows use) -----------------------


def _tenant_ada(prefetch: bool = False):
    """Like :func:`_chunked_ada` but with a TenantBlockCache and a stub
    tenant source the test toggles directly (no serving front needed)."""
    from repro.formats.xtc import encode_raw

    current = {"tenant": None}
    sim = Simulator()
    ada = ADA(
        sim,
        backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        block_cache=TenantBlockCache(
            sim, tenant_source=lambda: current["tenant"]
        ),
        prefetch=prefetch,
    )
    if prefetch:
        ada.prefetcher.tenant_source = lambda: current["tenant"]
    frames_per_chunk = 3
    workload = build_workload(
        natoms=240, nframes=NCHUNKS * frames_per_chunk, seed=9
    )
    blobs = [
        encode_raw(
            workload.trajectory.slice_frames(
                i * frames_per_chunk, (i + 1) * frames_per_chunk
            )
        )
        for i in range(NCHUNKS)
    ]
    sim.run_process(ada.ingest(LOGICAL, workload.pdb_text, blobs[0]))
    for blob in blobs[1:]:
        sim.run_process(ada.ingest_append(LOGICAL, blob))
    return sim, ada, current


def _charge_is_consistent(cache):
    return sum(cache.charged_bytes(o) for o in set(cache._owner.values())) == (
        cache.l1_bytes
    )


def test_whole_subset_chunk_recharged_on_cross_tenant_hit():
    """A chunk A's whole-subset read faulted in stops billing A once B's
    whole-subset read uses it.

    Before the fix a block stayed charged to whichever tenant happened to
    read it first, silently eating that tenant's quota while every
    neighbor enjoyed the hits.
    """
    sim, ada, current = _tenant_ada()
    key = (LOGICAL, "p", 0)

    current["tenant"] = "a"
    sim.run_process(ada.fetch(LOGICAL, "p"))
    assert ada.block_cache.owner(key) == "a"
    charged_to_a = ada.block_cache.charged_bytes("a")
    assert charged_to_a > 0

    current["tenant"] = "b"
    sim.run_process(ada.fetch(LOGICAL, "p"))
    assert ada.block_cache.owner(key) is None  # community property now
    assert ada.metrics.value("block_cache_cross_tenant_hits_total") >= 1
    assert ada.block_cache.charged_bytes("a") < charged_to_a
    assert ada.block_cache.charged_bytes(None) > 0
    assert _charge_is_consistent(ada.block_cache)


def test_cross_tenant_chunk_reuse_moves_charge_to_shared_pool():
    """B consuming blocks A faulted in must not leave A holding the bill."""
    sim, ada, current = _tenant_ada()
    cache = ada.block_cache

    current["tenant"] = "a"
    sim.run_process(ada.fetch_chunks(LOGICAL, "p", [0, 1, 2]))
    for chunk in (0, 1, 2):
        assert cache.owner((LOGICAL, "p", chunk)) == "a"

    current["tenant"] = "b"
    sim.run_process(ada.fetch_chunks(LOGICAL, "p", [0, 1, 2]))
    for chunk in (0, 1, 2):
        assert cache.owner((LOGICAL, "p", chunk)) is None
    assert cache.charged_bytes(None) > 0
    assert _charge_is_consistent(cache)


def test_concurrent_cross_tenant_fetch_keeps_accounting_consistent():
    """Two tenants racing on the same chunks: whoever wins the in-flight
    dedup, the books must still balance and reuse must communalize."""
    sim, ada, current = _tenant_ada()
    cache = ada.block_cache

    def tenant_fetch(name, chunks):
        current["tenant"] = name
        objs = yield from ada.fetch_chunks(LOGICAL, "p", chunks)
        return objs

    def race():
        a = sim.process(tenant_fetch("a", [3, 4, 5]))
        b = sim.process(tenant_fetch("b", [3, 4, 5]))
        yield sim.all_of([a, b])
        return None

    sim.run_process(race())
    assert _charge_is_consistent(cache)
    # A later touch by either tenant settles any single-owner residue.
    current["tenant"] = "b"
    sim.run_process(ada.fetch_chunks(LOGICAL, "p", [3, 4, 5]))
    current["tenant"] = "a"
    sim.run_process(ada.fetch_chunks(LOGICAL, "p", [3, 4, 5]))
    for chunk in (3, 4, 5):
        assert cache.owner((LOGICAL, "p", chunk)) is None
    assert _charge_is_consistent(cache)


# -- per-tenant prefetch streams and in-flight slots ------------------------


def test_stride_detection_survives_cross_tenant_interleaving():
    """Two tenants scrubbing the same dataset confirm *separate* strides.

    With the old global ``(logical, tag)`` stream key, B's windows reset
    A's stride every observation (stride 0), so neither tenant ever
    earned a prefetch under interleaving.
    """
    sim, ada, current = _tenant_ada(prefetch=True)
    prefetcher = ada.prefetcher
    for window in ([0, 1], [2, 3], [4, 5]):
        for tenant in ("a", "b"):
            current["tenant"] = tenant
            prefetcher.observe(LOGICAL, "p", window)
    assert (None, "a", LOGICAL, "p") in prefetcher._streams
    assert (None, "b", LOGICAL, "p") in prefetcher._streams
    # both confirmed on their third window
    assert prefetcher.metrics.value("prefetch_issued_total") == 2
    assert prefetcher.metrics.value("prefetch_suppressed_inflight_total") == 0
    sim.run()


def test_inflight_cap_is_per_tenant_not_global():
    """A's in-flight speculation must not suppress B's (but still its own)."""
    sim, ada, current = _tenant_ada(prefetch=True)
    prefetcher = ada.prefetcher
    assert MAX_INFLIGHT == 1

    current["tenant"] = "a"
    prefetcher.observe(LOGICAL, "p", [0, 1])
    prefetcher.observe(LOGICAL, "p", [2, 3])
    proc = prefetcher.observe(LOGICAL, "p", [4, 5])
    assert proc is not None and proc.is_alive  # A's slot is now occupied

    # A itself is capped...
    prefetcher.observe(LOGICAL, "p", [6, 7])
    assert prefetcher.metrics.value("prefetch_suppressed_inflight_total") == 1

    # ...but B is not: its slot is its own.
    current["tenant"] = "b"
    prefetcher.observe(LOGICAL, "p", [0, 1])
    prefetcher.observe(LOGICAL, "p", [2, 3])
    assert prefetcher.observe(LOGICAL, "p", [4, 5]) is not None
    # unchanged
    assert prefetcher.metrics.value("prefetch_suppressed_inflight_total") == 1
    assert prefetcher.metrics.value("prefetch_issued_total") == 2
    assert set(prefetcher._inflight) == {"a", "b"}
    sim.run()


def test_prefetch_budget_caps_speculative_bytes():
    """A zero budget suppresses speculation and counts it as such."""
    sim, ada, current = _tenant_ada(prefetch=True)
    prefetcher = ada.prefetcher
    prefetcher.budget_source = lambda tenant: 0.0

    current["tenant"] = "a"
    prefetcher.observe(LOGICAL, "p", [0, 1])
    prefetcher.observe(LOGICAL, "p", [2, 3])
    assert prefetcher.observe(LOGICAL, "p", [4, 5]) is None
    assert prefetcher.metrics.value("prefetch_suppressed_budget_total") == 1
    assert prefetcher.metrics.value("prefetch_issued_total") == 0

    # No ambient tenant -> single-tenant behavior: budgets do not apply.
    current["tenant"] = None
    prefetcher.observe(LOGICAL, "p", [6, 7])
    prefetcher.observe(LOGICAL, "p", [8, 9])
    # (stream for None confirmed on its second same-stride step)
    assert prefetcher.metrics.value("prefetch_suppressed_budget_total") == 1
    sim.run()

"""Ledger conservation for the block cache's running counters.

``BlockCache.l1_bytes``/``l2_bytes`` and
``TenantBlockCache.prefetched_bytes`` used to be recomputed from the
resident blocks on every read; they are running counters now.  This suite
drives arbitrary admit / lookup / window lookup / invalidate /
re-admit-by-another-tenant / over-capacity sequences and checks after
*every* step that

* each counter equals the sum recomputed from the resident blocks, and
* LRU order, owners, demotions, evictions and every other decision equal
  those of the pre-change implementation, kept below as the oracle (the
  recompute-everything version: its byte totals are ``sum()`` over the
  tiers, its speculative bytes a scan of both), and that a window lookup
  decides exactly what the oracle's per-key lookups do.

Below the oracle run: a window waits once, to exactly the float the chain
of per-hit waits ends on, and serves every block its probe found.
"""

import random

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.core import ADA
from repro.formats.xtc import encode_raw
from repro.fs.cache import L1_BANDWIDTH, L2_BANDWIDTH, L2_LATENCY_S, BlockCache
from repro.fs.localfs import LocalFS
from repro.serve import TenantBlockCache
from repro.sim import Simulator
from repro.storage.ssd import NVME_SSD_256GB
from repro.workloads import build_workload

L1_CAPACITY = 120
TENANTS = ("t0", "t1", "t2", None)
QUOTAS = {"t0": 40, "t1": 40}  # t2 has no reservation; 40 bytes are shared


class _Block:
    def __init__(self, nbytes, prefetched):
        self.nbytes = nbytes
        self.prefetched = prefetched


class _OracleCache:
    """The block cache as it was before the counters: same decisions,
    every quantity derived from the resident blocks when asked."""

    def __init__(self, l2_capacity):
        self.l1_capacity = L1_CAPACITY
        self.l2_capacity = l2_capacity
        self.l1 = OrderedDict()
        self.l2 = OrderedDict()
        self.counts = dict.fromkeys(
            ("hits_l1", "hits_l2", "misses", "demotions", "evictions",
             "invalidations", "prefetch_hits", "prefetch_wasted"), 0
        )

    def l1_bytes(self):
        return float(sum(b.nbytes for b in self.l1.values()))

    def l2_bytes(self):
        return float(sum(b.nbytes for b in self.l2.values()))

    def __contains__(self, key):
        return key in self.l1 or key in self.l2

    def lookup(self, key):
        return self.lookup_window([key])[0]

    def lookup_window(self, keys):
        """The per-key lookup, key by key, each L2 hit's promotion held
        back until every key is probed (then in key order).  Without an
        L2 nothing is held back: it is the per-key sequence itself."""
        blocks, promote = [], []
        for key in keys:
            block = self.l1.get(key)
            if block is not None:
                self.counts["hits_l1"] += 1
                self.l1.move_to_end(key)
                self._count_prefetch_use(block)
            else:
                block = self.l2.pop(key, None)
                if block is not None:
                    self.counts["hits_l2"] += 1
                    self._count_prefetch_use(block)
                    promote.append((key, block))
                else:
                    self.counts["misses"] += 1
            blocks.append(block)
        for key, block in promote:
            self._insert_l1(key, block)
        return blocks

    def admit(self, key, nbytes, prefetched):
        if nbytes > self.l1_capacity:
            return
        self.l2.pop(key, None)
        self._insert_l1(key, _Block(int(nbytes), prefetched))

    def invalidate(self, logical, tag, chunk):
        def matches(key):
            return (
                (logical is None or key[0] == logical)
                and (tag is None or key[1] == tag)
                and (chunk is None or key[2] == chunk)
            )

        dropped = 0
        for key in [k for k in self.l1 if matches(k)]:
            block = self.l1.pop(key)
            self._on_l1_remove(key, block)
            self._on_removed(key, block)
            dropped += 1
        for key in [k for k in self.l2 if matches(k)]:
            block = self.l2.pop(key)
            self._on_removed(key, block)
            dropped += 1
        self.counts["invalidations"] += dropped
        return dropped

    def _count_prefetch_use(self, block):
        if block.prefetched:
            self.counts["prefetch_hits"] += 1
            block.prefetched = False

    def _insert_l1(self, key, block):
        previous = self.l1.pop(key, None)
        if previous is not None:
            self._on_l1_remove(key, previous)
        self.l1[key] = block
        self.l1.move_to_end(key)
        self._on_l1_insert(key, block)
        while self.l1_bytes() > self.l1_capacity and len(self.l1) > 1:
            victim_key = self._pick_l1_victim()
            victim = self.l1.pop(victim_key)
            self._on_l1_remove(victim_key, victim)
            self._demote(victim_key, victim)
        if self.l1_bytes() > self.l1_capacity:
            only_key, only = self.l1.popitem(last=False)
            self._on_l1_remove(only_key, only)
            self._demote(only_key, only)

    def _demote(self, key, block):
        if block.nbytes > self.l2_capacity:
            self._drop(key, block)
            return
        self.counts["demotions"] += 1
        self.l2[key] = block
        self.l2.move_to_end(key)
        while self.l2_bytes() > self.l2_capacity and self.l2:
            victim_key = next(iter(self.l2))
            self._drop(victim_key, self.l2.pop(victim_key))

    def _drop(self, key, block):
        self.counts["evictions"] += 1
        if block.prefetched:
            self.counts["prefetch_wasted"] += 1
        self._on_removed(key, block)

    def _pick_l1_victim(self):
        return next(iter(self.l1))

    def _on_l1_insert(self, key, block):
        pass

    def _on_l1_remove(self, key, block):
        pass

    def _on_removed(self, key, block):
        pass


class _OracleTenantCache(_OracleCache):
    """The fair-share cache as it was: owners, L1 charges, victim choice."""

    def __init__(self, l2_capacity, current):
        super().__init__(l2_capacity)
        self.current = current
        self.owner = {}
        self.charged = {}
        self.counts.update(cross_tenant_hits=0, quota_evictions=0)

    def prefetched_bytes(self, tenant):
        total = 0.0
        for lru in (self.l1, self.l2):
            for key, block in lru.items():
                if block.prefetched and self.owner.get(key) == tenant:
                    total += block.nbytes
        return total

    def admit(self, key, nbytes, prefetched):
        tenant = self.current["tenant"]
        if key not in self:
            self.owner[key] = tenant
        elif self.owner.get(key) != tenant:
            self._transfer(key, None)
        super().admit(key, nbytes, prefetched)
        if key not in self:
            self.owner.pop(key, None)

    def lookup_window(self, keys):
        blocks = super().lookup_window(keys)
        tenant = self.current["tenant"]
        for key, block in zip(keys, blocks):
            owner = self.owner.get(key)
            if block is None:
                continue
            if tenant is not None and owner is not None and tenant != owner:
                self.counts["cross_tenant_hits"] += 1
                self._transfer(key, None)
        return blocks

    def _uncharge(self, owner, nbytes):
        remaining = self.charged.get(owner, 0.0) - nbytes
        if remaining > 0.0:
            self.charged[owner] = remaining
        else:
            self.charged.pop(owner, None)

    def _on_l1_insert(self, key, block):
        owner = self.owner.get(key)
        self.charged[owner] = self.charged.get(owner, 0.0) + block.nbytes

    def _on_l1_remove(self, key, block):
        self._uncharge(self.owner.get(key), block.nbytes)

    def _on_removed(self, key, block):
        self.owner.pop(key, None)

    def _transfer(self, key, new_owner):
        old_owner = self.owner.get(key)
        if old_owner == new_owner:
            return
        block = self.l1.get(key)
        if block is not None:
            self._uncharge(old_owner, block.nbytes)
            self.charged[new_owner] = (
                self.charged.get(new_owner, 0.0) + block.nbytes
            )
        self.owner[key] = new_owner

    def _over_allocation(self, owner):
        charged = self.charged.get(owner, 0.0)
        if owner is None:
            return charged > max(0.0, self.l1_capacity - sum(QUOTAS.values()))
        quota = QUOTAS.get(owner)
        return True if quota is None else charged > quota

    def _pick_l1_victim(self):
        fallback = None
        for key in self.l1:
            if fallback is None:
                fallback = key
            if self._over_allocation(self.owner.get(key)):
                self.counts["quota_evictions"] += 1
                return key
        return fallback


_KEYS = st.tuples(
    st.sampled_from(("a", "b")), st.sampled_from(("p", "m")),
    st.integers(0, 3),
)
#: 150 > L1 (bypassed); 100 + anything > L1 (a lone over-budget neighbour).
_SIZES = st.sampled_from((10, 30, 50, 100, 150))
_WILD = lambda values: st.one_of(st.none(), st.sampled_from(values))  # noqa: E731
_ADMIT = st.tuples(
    st.just("admit"), st.sampled_from(TENANTS), _KEYS, _SIZES, st.booleans()
)
_LOOKUP = st.tuples(st.just("lookup"), st.sampled_from(TENANTS), _KEYS)
_WINDOW = st.tuples(
    st.just("window"), st.sampled_from(TENANTS),
    st.lists(_KEYS, min_size=1, max_size=6, unique=True),
)
_OPS = st.one_of(
    _ADMIT, _LOOKUP, _WINDOW,
    st.tuples(st.just("invalidate"), _WILD(("a", "b")), _WILD(("p", "m")),
              _WILD((0, 1, 2, 3))),
)


def _apply(sim, cache, oracle, current, op):
    if op[0] == "admit":
        _, current["tenant"], key, nbytes, prefetched = op
        cache.admit(key, nbytes, prefetched=prefetched)
        oracle.admit(key, nbytes, prefetched)
    elif op[0] == "lookup":
        _, current["tenant"], key = op
        got = sim.run_process(cache.lookup([key]))[0]
        want = oracle.lookup(key)
        assert (got is None) == (want is None)
    elif op[0] == "window":
        _, current["tenant"], keys = op
        got = sim.run_process(cache.lookup(keys))
        if oracle.l2_capacity:
            want = oracle.lookup_window(keys)
        else:  # nothing to promote: literally one lookup per key
            want = [oracle.lookup(key) for key in keys]
        assert [b is None for b in got] == [b is None for b in want]
    else:
        assert cache.invalidate(*op[1:]) == oracle.invalidate(*op[1:])


def _check_tiers(cache, oracle):
    # Conservation: the running counters equal the recomputed sums.
    assert cache.l1_bytes == sum(b.nbytes for b in cache._l1.values())
    assert cache.l2_bytes == sum(b.nbytes for b in cache._l2.values())
    assert cache.pressure() == cache.l1_bytes / cache.l1_capacity_bytes
    # Same decisions as before: residency, LRU order, flags, counters.
    for tier, want in ((cache._l1, oracle.l1), (cache._l2, oracle.l2)):
        assert list(tier) == list(want)
        assert [(b.nbytes, b.prefetched) for b in tier.values()] == [
            (b.nbytes, b.prefetched) for b in want.values()
        ]
    assert (cache.l1_bytes, cache.l2_bytes) == (
        oracle.l1_bytes(), oracle.l2_bytes()
    )
    value = cache.metrics.value
    assert {
        name: value("block_cache_hits_total", tier=name[-2:])
        if name.startswith("hits_l")
        else value(f"block_cache_{name}_total")
        for name in oracle.counts
    } == oracle.counts


@settings(max_examples=120, deadline=None)
@given(st.sampled_from((0.0, 200.0)), st.lists(_OPS, max_size=60))
def test_block_cache_byte_counters_balance(l2_capacity, ops):
    sim = Simulator()
    cache = BlockCache(
        sim, l1_capacity_bytes=L1_CAPACITY, l2_capacity_bytes=l2_capacity
    )
    oracle = _OracleCache(l2_capacity)
    for op in ops:
        _apply(sim, cache, oracle, {}, op)
        _check_tiers(cache, oracle)


def _tenant_cache(sim, current, l2_capacity):
    """A tenant cache billing ``current["tenant"]``, with ``QUOTAS`` set."""
    cache = TenantBlockCache(
        sim, tenant_source=lambda: current["tenant"],
        l1_capacity_bytes=L1_CAPACITY, l2_capacity_bytes=l2_capacity,
    )
    for tenant, nbytes in QUOTAS.items():
        cache.set_quota(tenant, nbytes)
    return cache


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((0.0, 200.0)), st.lists(_OPS, max_size=60))
def test_tenant_cache_ledgers_balance(l2_capacity, ops):
    sim = Simulator()
    current = {"tenant": None}
    cache = _tenant_cache(sim, current, l2_capacity)
    oracle = _OracleTenantCache(l2_capacity, current)
    for op in ops:
        _apply(sim, cache, oracle, current, op)
        _check_tiers(cache, oracle)
        assert cache._owner == oracle.owner
        for tenant in TENANTS:
            recomputed = sum(
                block.nbytes
                for tier in (cache._l1, cache._l2)
                for key, block in tier.items()
                if block.prefetched and cache.owner(key) == tenant
            )
            assert cache.prefetched_bytes(tenant) == recomputed
            assert recomputed == oracle.prefetched_bytes(tenant)
            assert cache.charged_bytes(tenant) == oracle.charged.get(
                tenant, 0.0
            )
    # Nothing is left on the books for blocks that are gone.
    cache.invalidate()
    assert (cache.l1_bytes, cache.l2_bytes) == (0.0, 0.0)
    assert cache._speculative == {} and cache._owner == {}


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_ADMIT, min_size=8, max_size=16),
    st.lists(st.one_of(_WINDOW, _ADMIT, _LOOKUP), min_size=1, max_size=20),
)
def test_windows_over_both_tiers_match_the_oracle(warmup, ops):
    """Windows over a cache whose L1 overflowed into L2, so one window
    holds hits of both tiers, misses and several promotions."""
    for tenants in (False, True):
        sim = Simulator()
        current = {"tenant": None}
        if tenants:
            cache = _tenant_cache(sim, current, 200.0)
            oracle = _OracleTenantCache(200.0, current)
        else:
            cache = BlockCache(
                sim, l1_capacity_bytes=L1_CAPACITY, l2_capacity_bytes=200.0
            )
            oracle = _OracleCache(200.0)
        for op in warmup + ops:
            _apply(sim, cache, oracle, current, op)
            _check_tiers(cache, oracle)
            if tenants:
                assert cache._owner == oracle.owner
                for tenant in TENANTS:
                    assert cache.charged_bytes(tenant) == oracle.charged.get(
                        tenant, 0.0
                    )


# -- one wait per window ------------------------------------------------------


def _chained_waits(start, charges):
    """Where a chain of per-hit timeouts, begun at ``start``, ends."""
    sim = Simulator()
    sim.run(until=start)

    def chain():
        for charge in charges:
            yield sim.timeout(charge)

    sim.run_process(chain())
    return sim.now


@pytest.mark.parametrize("t0", [0.0, 1e-4, 2.0])
def test_window_wait_ends_on_the_chained_sum(t0):
    """A mixed L1/L2/miss window ends on ``((t + c1) + c2) + ...``: the
    float a chain of per-hit timeouts reaches.  Starting near 1e-4 s,
    ``now + (end - now)`` misses that float by an ulp in a few % of
    windows, which is why the wait is at an absolute time."""
    rng = random.Random(7)
    for trial in range(300):
        start = t0 if trial == 0 else t0 * rng.uniform(0.5, 1.5)
        sim = Simulator()
        cache = BlockCache(
            sim, l1_capacity_bytes=16 << 20, l2_capacity_bytes=64 << 20
        )
        for chunk in range(12):  # the first ones demote to L2
            cache.admit(("f", "p", chunk), rng.randint(1, 4 << 20))
        keys = rng.sample([("f", "p", chunk) for chunk in range(13)], 5)
        charges = [
            cache._l1[key].nbytes / L1_BANDWIDTH if key in cache._l1
            else L2_LATENCY_S + cache._l2[key].nbytes / L2_BANDWIDTH
            for key in keys if key in cache
        ]
        sim.run(until=start)
        events = sim.events_processed
        blocks = sim.run_process(cache.lookup(keys))
        want = start
        for charge in charges:
            want += charge
        assert sim.now == want == _chained_waits(start, charges)
        assert [b is not None for b in blocks] == [
            key in cache for key in keys
        ]
        # The process's boot, plus one wait when anything hit.
        assert sim.events_processed - events == 1 + bool(charges)


def test_window_serves_a_block_evicted_during_its_wait():
    """A window's hits are decided at its probe.  A concurrent admission
    that evicts chunk 1 while the window waits out chunk 0's charge does
    not turn chunk 1 into a device read (it did with a probe per chunk,
    each after the previous chunk's wait)."""
    sim = Simulator()
    cache = BlockCache(sim)
    ada = ADA(
        sim, backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd")},
        block_cache=cache,
    )
    workload = build_workload(natoms=240, nframes=6, seed=9)
    chunk0, chunk1 = (
        encode_raw(workload.trajectory.slice_frames(i, i + 3)) for i in (0, 3)
    )
    sim.run_process(ada.ingest("w.xtc", workload.pdb_text, chunk0))
    sim.run_process(ada.ingest_append("w.xtc", chunk1))
    retriever = ada.determinator.retriever
    warm = sim.run_process(retriever.retrieve_chunks("w.xtc", "p", [0, 1]))
    misses = cache.metrics.value("block_cache_misses_total")

    def intruder():
        yield sim.timeout(warm[0].nbytes / L1_BANDWIDTH / 2)
        cache.admit(("intruder", "p", 0), int(cache.l1_capacity_bytes))

    sim.process(intruder())
    got = sim.run_process(retriever.retrieve_chunks("w.xtc", "p", [0, 1]))
    assert [o.data for o in got] == [o.data for o in warm]
    assert cache.metrics.value("block_cache_misses_total") == misses
    assert ("w.xtc", "p", 0) not in cache and ("w.xtc", "p", 1) not in cache

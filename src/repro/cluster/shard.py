"""Distributed ADA: shard the middleware itself across N nodes.

PVFS already stripes *objects* across simulated storage devices, but the
middleware (categorizer, dispatcher, block cache, frame index) has been a
singleton -- aggregate read throughput was capped by one node's cache and
device queues no matter how many backends existed.  This module scales
the middleware out:

* :class:`HashRing` -- consistent hashing with virtual nodes, keyed on
  a dataset's active tag (all its subsets share holders).  Placement is
  a pure function of ``(seed, node names, key)`` (md5, independent of
  ``PYTHONHASHSEED``), so every process and every run agrees on
  ownership, and adding or removing a node only remaps the
  ring-adjacent key ranges (~1/N of keys).
* :class:`ShardNode` -- one ADA middleware instance plus its liveness
  flag and load gauges.  Each node owns its *own* backends, block cache,
  prefetcher, and retriever, so N nodes mean N independent device queues
  and N private working sets.
* :class:`ShardedADA` -- the front: the same
  :class:`~repro.core.dataplane.DataPlane` as a single
  :class:`~repro.core.middleware.ADA` (``repro.serve`` and ``repro.vmd``
  run on top unmodified), with storage hooks that route every subset
  operation to its owners.  The hot active subset (tag ``p`` by
  default) is replicated to R nodes with read-any/primary-write
  semantics; reads pick the least-loaded live replica (sticky per
  stream, so sequential scans keep training one shard's stride
  detector); a dead node triggers failover to a surviving replica, and
  an unreplicated subset whose only holder died degrades exactly like a
  lost inactive tier (:class:`~repro.errors.DegradedReadWarning`).

Fault injection composes: each routed operation first consults the
``shard:<node>`` site of the attached :class:`~repro.faults.FaultPlan`
(the shard's "network/RPC device"), with transient errors retried by a
front-side :class:`~repro.faults.Retrier` and permanent errors treated as
a node crash.  Rebalancing (:meth:`ShardedADA.add_node` /
:meth:`ShardedADA.drain_node`) migrates only the keys whose ownership
changed, re-using the write path's coalesced chunk-run machinery and
overlapping migration with serving -- reads keep routing to the old
holders until each key's copy has landed.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Callable, Dict, Generator, List, Optional, Sequence, Tuple

from repro.core.dataplane import DataPlane
from repro.core.ingest import IngestPipelineConfig
from repro.core.labeler import LabelMap
from repro.core.lod import base_tag
from repro.core.middleware import ADA
from repro.errors import (
    ConfigurationError,
    LabelIndexError,
    NodeDownError,
    PermanentFaultError,
)
from repro.faults.plan import PERMANENT, FaultPlan, raise_fault
from repro.faults.retry import Retrier, RetryPolicy, RetryStats
from repro.fs.base import FileSystem, StoredObject
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import span
from repro.sim import AllOf, Simulator

__all__ = ["HashRing", "ShardNode", "ShardedADA"]

#: Virtual nodes per physical node; more vnodes = tighter balance.
DEFAULT_VNODES = 256

#: Requests a stream's sticky replica may trail the least-loaded one by
#: before the stream switches (see :meth:`ShardedADA._select`).
AFFINITY_SLACK = 2


def _hash64(text: str) -> int:
    """Stable 64-bit hash (md5 prefix): identical across processes,
    seeds, and ``PYTHONHASHSEED`` values."""
    return int.from_bytes(
        hashlib.md5(text.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ring with virtual nodes.

    ``owners(key, n)`` walks clockwise from the key's hash collecting the
    first ``n`` *distinct* nodes -- the replica set.  Adding a node
    claims only the ranges immediately counter-clockwise of its vnodes;
    every other key keeps its owners, which is the minimal-movement
    property the rebalancer relies on.
    """

    def __init__(
        self,
        nodes: Sequence[str] = (),
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0,
    ):
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = int(vnodes)
        self.seed = int(seed)
        self._hashes: List[int] = []
        self._ring: Dict[int, str] = {}
        self._nodes: List[str] = []
        for node in nodes:
            self.add(node)

    @property
    def nodes(self) -> List[str]:
        return list(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    @staticmethod
    def key_for(logical: str, tag: str) -> str:
        return f"{logical}#{tag}"

    def _points(self, node: str) -> List[int]:
        return [
            _hash64(f"{self.seed}/{node}#{i}") for i in range(self.vnodes)
        ]

    def add(self, node: str) -> None:
        if node in self._nodes:
            raise ConfigurationError(f"node {node!r} already on the ring")
        for point in self._points(node):
            if point in self._ring:  # 64-bit collision: effectively never
                continue
            self._ring[point] = node
            bisect.insort(self._hashes, point)
        self._nodes.append(node)
        self._nodes.sort()

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise ConfigurationError(f"node {node!r} not on the ring")
        for point in self._points(node):
            if self._ring.get(point) == node:
                del self._ring[point]
                index = bisect.bisect_left(self._hashes, point)
                del self._hashes[index]
        self._nodes.remove(node)

    def owners(self, key: str, n: int = 1) -> List[str]:
        """The first ``n`` distinct nodes clockwise of ``key``'s hash."""
        if not self._nodes:
            raise ConfigurationError("hash ring has no nodes")
        n = min(int(n), len(self._nodes))
        start = bisect.bisect_right(self._hashes, _hash64(key))
        found: List[str] = []
        total = len(self._hashes)
        for step in range(total):
            node = self._ring[self._hashes[(start + step) % total]]
            if node not in found:
                found.append(node)
                if len(found) == n:
                    break
        return found

    def primary(self, key: str) -> str:
        return self.owners(key, 1)[0]


class ShardNode:
    """One ADA middleware node of a sharded deployment.

    Wraps a full :class:`ADA` (its own backends, cache, prefetcher,
    retriever -- all metric-labeled with the node name) plus the
    liveness flag and load gauges the router keys on.  Death is
    fail-stop *for routing*: a killed node receives no new requests;
    requests already executing drain normally, which cannot change any
    read's bytes -- replicas are byte-identical by construction.
    """

    def __init__(self, name: str, ada: ADA):
        self.name = str(name)
        self.ada = ada
        self.alive = True
        self.inflight = 0
        self.served_bytes = 0
        self._backends = tuple(ada.plfs.backends.values())

    @classmethod
    def build(
        cls,
        sim: Simulator,
        name: str,
        backends: Dict[str, FileSystem],
        metrics: Optional[MetricsRegistry] = None,
        **ada_kwargs,
    ) -> "ShardNode":
        """Construct the node's middleware with shard-labeled metrics."""
        ada = ADA(
            sim, backends, metrics=metrics, shard_id=str(name), **ada_kwargs
        )
        return cls(name, ada)

    def backlog(self) -> Tuple[int, int]:
        """``(queued_ns, queued_writes)`` on the node's devices: reads and
        writes alike, routed or not (appends never pass the router)."""
        queued_ns, writes = zip(*(fs.device_backlog() for fs in self._backends))
        return sum(queued_ns), sum(writes)

    def kill(self) -> None:
        self.alive = False

    def revive(self) -> None:
        self.alive = True

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"ShardNode({self.name!r}, {state}, inflight={self.inflight})"


class ShardedADA(DataPlane):
    """N ADA middleware nodes behind one single-middleware surface.

    Datasets partition across nodes by consistent-hashing their active
    tag: tags in ``replicated_tags`` (the hot active subset) and their
    ``lod:`` siblings land on its ``replicas`` holders, every other tag
    on its primary.  Reads route to the least-loaded live holder
    (sticky per ``(logical, tag)`` stream), writes go to every holder
    (primary first, so the primary's copy is never behind a replica's),
    and ``fetch_merged`` routes each tag on its own.

    Everything that is not routing -- the public read and ingest
    surface, tier resolution, ``fetch_all``'s degrade policy, the merge,
    ``tags``/``has_lod``/``lod_bound``/``remove`` -- is the shared
    :class:`~repro.core.dataplane.DataPlane`, so
    :class:`~repro.serve.ServeFront` and
    :class:`~repro.vmd.session.VMDSession` run unmodified on top.  The
    tier resolves once, at the front: the read hooks route the resolved
    tag to a node's own hooks, never to its public ``fetch*``.
    """

    _span_family = "cluster"

    # ``benchmarks/e2e/trace.py`` patches these per class through
    # ``cls.__dict__``, so each front names the shared entry points.
    fetch = DataPlane.fetch
    fetch_chunks = DataPlane.fetch_chunks
    fetch_merged = DataPlane.fetch_merged
    ingest = DataPlane.ingest
    ingest_append = DataPlane.ingest_append
    ingest_stream = DataPlane.ingest_stream

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[ShardNode],
        replicas: int = 2,
        replicated_tags: Sequence[str] = ("p",),
        fault_plan: Optional[FaultPlan] = None,
        retry_policy: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
        affinity_bytes_slack: int = 256 * 1024,
    ):
        if not nodes:
            raise ConfigurationError("ShardedADA needs at least one node")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        super().__init__(sim, metrics, {"shard": "front"})
        self.replicas = int(replicas)
        self.replicated_tags = tuple(replicated_tags)
        self.affinity_bytes_slack = int(affinity_bytes_slack)
        self.nodes: Dict[str, ShardNode] = {}
        self.ring = HashRing()
        #: Authoritative holder lists: ``(logical, tag) -> [node, ...]``
        #: (primary first).  The ring proposes targets; this records where
        #: data currently *is*, so reads keep resolving mid-migration.
        self._placement: Dict[Tuple[str, str], List[str]] = {}
        self._catalog: Dict[str, List[str]] = {}
        self._affinity: Dict[Tuple[str, str], str] = {}
        #: Failure/recovery timeline: kill and failover events in sim time.
        self.events: List[Dict[str, object]] = []
        #: (logical, tag, dead primary) already logged as promoted, so the
        #: timeline records each promotion once, not once per read.
        self._promoted: set = set()
        self.fault_plan = fault_plan
        self._retrier = (
            Retrier(
                sim,
                policy=retry_policy,
                stats=RetryStats(
                    metrics=self.metrics, metric_labels=self.metric_labels
                ),
            )
            if fault_plan is not None
            else None
        )
        self._counters = {
            "routed": self.metrics.counter("cluster_routed_total"),
            "steers": self.metrics.counter("cluster_read_steers_total"),
            "failovers": self.metrics.counter("cluster_failovers_total"),
            "kills": self.metrics.counter("cluster_node_kills_total"),
            "degraded": self.metrics.counter("cluster_degraded_reads_total"),
            "keys_moved": self.metrics.counter("cluster_keys_moved_total"),
            "bytes_moved": self.metrics.counter("cluster_bytes_moved_total"),
            "lod_routed": self.metrics.counter("cluster_lod_routed_total"),
            "lod_fallback": self.metrics.counter(
                "cluster_lod_fallback_total"
            ),
        }
        for node in nodes:
            self._register(node)
        # The front does host-side preprocessing (categorize/encode)
        # once; nodes only see already-encoded per-tag subsets.
        self.preprocessor = self._first_ada().preprocessor
        self.policy = self._first_ada().policy

    # -- membership -----------------------------------------------------------

    def _register(self, node: ShardNode) -> None:
        if node.name in self.nodes:
            raise ConfigurationError(f"duplicate shard node {node.name!r}")
        if self.nodes:
            self._wire_like_peer(node.ada)
        self.nodes[node.name] = node
        self.ring.add(node.name)
        self.metrics.gauge(
            "shard_inflight",
            fn=lambda n=node: n.inflight,
            shard=node.name,
        )
        self.metrics.gauge(
            "shard_queued_device_seconds",
            fn=lambda n=node: n.backlog()[0] / 1e9,
            shard=node.name,
        )
        self.metrics.gauge(
            "shard_alive", fn=lambda n=node: int(n.alive), shard=node.name
        )
        node._served_counter = self.metrics.counter(
            "shard_served_bytes_total", shard=node.name
        )

    def _wire_like_peer(self, ada: ADA) -> None:
        """A joining node takes the ambient sources (current tenant,
        prefetch budget) a consumer wired on the members already here, so
        its cache and prefetcher bill the same tenants -- the sources
        only, not cache reservations made before it joined."""
        peer = self._first_ada()
        for part in ("block_cache", "prefetcher"):
            wired, fresh = getattr(peer, part), getattr(ada, part)
            for source in ("tenant_source", "budget_source"):
                # has the slot, and nobody filled it
                if getattr(fresh, source, True) is None:
                    setattr(fresh, source, getattr(wired, source, None))

    def members(self) -> List[ADA]:
        return [node.ada for node in self.nodes.values()]

    def alive_nodes(self) -> List[str]:
        return sorted(n for n, node in self.nodes.items() if node.alive)

    def kill_node(self, name: str) -> None:
        """Fail-stop a node: no new requests route to it."""
        node = self.nodes[name]
        if not node.alive:
            return
        node.kill()
        self._counters["kills"].inc()
        # A fresh corpse gets a fresh promotion timeline (revive + re-kill).
        self._promoted = {p for p in self._promoted if p[2] != name}
        self.events.append({"t": self.sim.now, "event": "kill", "node": name})

    # -- placement ------------------------------------------------------------

    def replication_for(self, tag: str) -> int:
        return self.replicas if base_tag(tag) in self.replicated_tags else 1

    def targets(self, logical: str, tag: str) -> List[str]:
        """Where the ring says ``(logical, tag)`` should live now.

        A dataset lives on its active tag's holders, as the paper keeps
        every tagged subset in one container: every tag is keyed on the
        first ``replicated_tags`` entry, so a replicated tag and its
        ``lod:`` sibling take its R owners and an unreplicated (MISC)
        tag and its sibling take the primary, ``owners[0]``.  With no
        replicated tag, each base tag keeps its own key and its sibling
        follows.  An append then writes exactly R nodes, not one per
        ``(tag, holder)``: on ``serve_sharded_mixed`` (seed 7, measured
        phase) 1,187 -> 810 holder writes and makespan 19.29 -> 17.20 s.
        Keying on the dataset name alone moves ``p`` (p50 +7.9 %, 4-node
        ``BENCH_cluster`` 3.933x -> 3.61x); siblings following their
        base with MISC on its own key gave -5.3 % makespan, and MISC on
        the last holder -6.0 / -4.1 / -5.4 % at seeds 7 / 11 / 13,
        against -10.9 / -8.2 / -8.8 % on the primary.
        """
        key = self.replicated_tags[0] if self.replicated_tags else tag
        owners = self.ring.owners(
            HashRing.key_for(logical, base_tag(key)), self.replicas
        )
        return owners[: self.replication_for(tag)]

    def holders(self, logical: str, tag: str) -> List[str]:
        """Where ``(logical, tag)`` actually lives (primary first)."""
        try:
            return list(self._placement[(logical, tag)])
        except KeyError:
            raise LabelIndexError(
                f"no placement for {logical!r}#{tag!r}"
            ) from None

    def _any_holder(self, logical: str, tag: str) -> ShardNode:
        names = self.holders(logical, tag)
        for name in names:
            if self.nodes[name].alive:
                return self.nodes[name]
        # Every holder is down; metadata is still resolvable from the
        # first holder's in-memory index (it just cannot serve reads).
        return self.nodes[names[0]]

    # -- routing core -----------------------------------------------------------

    def _select(self, logical: str, tag: str, candidates: List[str]) -> str:
        """Least-loaded live replica, sticky per (logical, tag) stream.

        Stickiness matters for satellite efficiency, not correctness: a
        sequential scan that alternated replicas every window would feed
        each shard's stride detector a broken pattern and kill prefetch.
        The stream switches replicas when its node died, fell
        :data:`AFFINITY_SLACK` requests behind the least-loaded one, or has
        served ``affinity_bytes_slack`` more bytes than it (the byte
        bound stops a Zipf-hot stream from pinning its whole volume on
        one replica -- stickiness is a tiebreak, not a hard pin).

        Appends reach every holder outside the router, so ``inflight``
        cannot see a holder whose device is busy writing.  When the
        holder the stream would use (its sticky one, else the least
        loaded) has a write queued, the read goes instead to the live
        holder with the fewest queued device nanoseconds, if that is
        strictly fewer, and the stream's affinity follows it.  With no
        write queued the rule never fires, so a read-only deployment
        keeps the locality stickiness buys; a steer trades some cache
        hits on the old holder for not waiting behind its append.
        """
        def load(name: str) -> Tuple[int, int, str]:
            node = self.nodes[name]
            return (node.inflight, node.served_bytes, name)

        best = min(candidates, key=load)
        sticky = self._affinity.get((logical, tag))
        cur = sticky if sticky in candidates else best
        queued_ns, writes = self.nodes[cur].backlog()
        if writes:
            backlog = {name: self.nodes[name].backlog()[0] for name in candidates}
            alt = min(candidates, key=lambda name: (backlog[name], load(name)))
            if queued_ns > backlog[alt]:
                self._counters["steers"].inc()
                self._affinity[(logical, tag)] = alt
                return alt
        if sticky in candidates:
            snode, bnode = self.nodes[sticky], self.nodes[best]
            if (
                snode.inflight <= bnode.inflight + AFFINITY_SLACK
                and snode.served_bytes
                <= bnode.served_bytes + self.affinity_bytes_slack
            ):
                return sticky
        self._affinity[(logical, tag)] = best
        return best

    def _gate(self, node: ShardNode, op: str) -> Generator:
        """Process: the shard's fault site -- pay latency, raise injections.

        A permanent injection at a shard site means the *node* is gone
        (fail-stop), not just one request: the node is killed and the
        error surfaces as :class:`NodeDownError` for the router to fail
        over.
        """
        if not node.alive:
            raise NodeDownError(f"shard:{node.name} is down")
        if self.fault_plan is None:
            return
        site = f"shard:{node.name}"
        decision = self.fault_plan.decide(site, op)
        if decision.latency_s:
            yield self.sim.timeout(decision.latency_s)
        if decision.error is not None:
            if decision.error == PERMANENT:
                self.kill_node(node.name)
                raise NodeDownError(
                    f"shard:{node.name}: injected node crash during {op}"
                )
            raise_fault(decision.error, site, op)

    def _attempt(
        self, node: ShardNode, op: str, factory: Callable[[ShardNode], Generator]
    ) -> Generator:
        yield from self._gate(node, op)
        result = yield from factory(node)
        return result

    @staticmethod
    def _result_nbytes(result) -> int:
        """Served bytes of a routed read (one object or a chunk list)."""
        objs = [result] if isinstance(result, StoredObject) else result
        return int(sum(obj.nbytes for obj in objs))

    def _routed(
        self,
        logical: str,
        tag: str,
        op: str,
        factory: Callable[[ShardNode], Generator],
    ) -> Generator:
        """Process: run ``factory(node)`` on the best live holder.

        Transient shard faults retry on the *same* node (bounded by the
        front's retry policy); a dead node -- killed out-of-band or by a
        permanent injection -- fails over to the next live replica.
        ``NodeDownError`` escapes only when every holder is gone.
        """
        candidates = self.holders(logical, tag)
        tried: List[str] = []
        with span(
            self.sim, "cluster.route", logical=logical, tag=tag, op=op
        ) as sp:
            while True:
                live = [
                    name
                    for name in candidates
                    if self.nodes[name].alive and name not in tried
                ]
                if not live:
                    raise NodeDownError(
                        f"{logical}#{tag}: no live replica "
                        f"(holders {candidates}, tried {tried})"
                    )
                name = self._select(logical, tag, live)
                node = self.nodes[name]
                self._counters["routed"].inc()
                node.inflight += 1
                try:
                    if self._retrier is not None:
                        result = yield from self._retrier.call(
                            lambda n=node: self._attempt(n, op, factory),
                            key=f"shard:{name}:{op}:{logical}#{tag}",
                        )
                    else:
                        result = yield from self._attempt(node, op, factory)
                except (NodeDownError, PermanentFaultError) as exc:
                    tried.append(name)
                    self._counters["failovers"].inc()
                    self._log_failover(logical, tag, op, name, reason=str(exc))
                    sp.tag(failover=len(tried))
                    continue
                finally:
                    node.inflight -= 1
                nbytes = self._result_nbytes(result)
                node.served_bytes += nbytes
                node._served_counter.inc(nbytes)
                primary = candidates[0]
                if name != primary and not self.nodes[primary].alive:
                    # The key's primary died out-of-band; this read was
                    # silently promoted to a replica.  Count every such
                    # read, but put only the first per (key, corpse) on
                    # the timeline -- that first success IS the recovery
                    # point the chaos bench measures.
                    self._counters["failovers"].inc()
                    promo = (logical, tag, primary)
                    if promo not in self._promoted:
                        self._promoted.add(promo)
                        self._log_failover(
                            logical, tag, op, primary, to=name,
                            reason="primary dead; replica promoted",
                        )
                    sp.tag(promoted_from=primary)
                sp.tag(node=name)
                return result

    def _log_failover(
        self, logical: str, tag: str, op: str, source: str, **extra
    ) -> None:
        self.events.append(
            {
                "t": self.sim.now, "event": "failover", "logical": logical,
                "tag": tag, "op": op, "from": source, **extra,
            }
        )

    # -- ingest (write) path -----------------------------------------------------

    def _store_subsets(
        self,
        logical: str,
        subsets: Dict[str, bytes],
        config: Optional[IngestPipelineConfig] = None,
    ) -> Generator:
        """Process: write each tag's blob to every holder -- one store
        per node carrying every tag it holds, nodes in parallel.

        Primary-write semantics: the holder list is ring order, primary
        first; all copies are written before the ingest completes, so a
        later failover can serve bit-identical bytes from any replica.
        """
        by_node: Dict[str, Dict[str, bytes]] = {}
        for tag in sorted(subsets):
            key = (logical, tag)
            if key not in self._placement:
                self._placement[key] = self.targets(logical, tag)
                tags = self._catalog.setdefault(logical, [])
                if tag not in tags:
                    tags.append(tag)
                    tags.sort()
            for name in self._placement[key]:
                by_node.setdefault(name, {})[tag] = subsets[tag]
        procs = [
            self.sim.process(
                self.nodes[name].ada.determinator.store(logical, held, config),
                name=f"shardwrite:{name}:{logical}",
            )
            for name, held in by_node.items()
        ]
        if procs:
            yield AllOf(self.sim, procs)

    def _charge_preprocess(self, raw_nbytes: float) -> Generator:
        """Process: the front's pre-processing CPU charge.

        Charged on the first node's storage CPUs when it has any
        (mirrors single-node ADA; a no-op for CPU-less deployments).
        """
        return self._first_ada()._charge_preprocess(raw_nbytes)

    def _charge_analysis(self, raw_nbytes: float) -> Generator:
        """Process: the fused in-situ pass, charged like pre-processing."""
        return self._first_ada()._charge_analysis(raw_nbytes)

    def _first_ada(self) -> ADA:
        return next(iter(self.nodes.values())).ada

    def _store_label(self, logical: str, label_map: LabelMap):
        """The front keeps label maps in memory: nothing to write."""
        self._label_maps[logical] = label_map
        return ()

    # -- fetch (read) path ---------------------------------------------------------

    def _under_pressure(self, logical: str, tag: Optional[str]) -> bool:
        """Any live holder of the base subset (of any base subset, for a
        merged read) reporting pressure?  The front has no signal of its
        own: ``"auto"`` folds in the holders' cache watermark and fresh
        fault degradation."""
        for base in [tag] if tag is not None else self.tags(logical):
            for name in self._placement.get((logical, base), ()):
                node = self.nodes[name]
                if node.alive and node.ada._under_pressure(logical, base):
                    return True
        return False

    def _fetch(self, logical: str, tag: str) -> Generator:
        return self._routed(
            logical, tag, "fetch", lambda node: node.ada._fetch(logical, tag)
        )

    def _fetch_chunks(
        self, logical: str, tag: str, chunks: List[int]
    ) -> Generator:
        return self._routed(
            logical, tag, "fetch_chunks",
            lambda node: node.ada._fetch_chunks(logical, tag, chunks),
        )

    #: ``fetch_all`` reads each tag as one routed fetch.
    _read_subset = _fetch

    def _read_chunks(self, logical: str, tag: str) -> Generator:
        return self._routed(
            logical, tag, "fetch_merged",
            lambda node: node.ada._read_chunks(logical, tag),
        )

    def _downgradable(self, logical: str, tag: str) -> bool:
        """Expendable = unreplicated (the cluster analog of 'inactive').

        Replication *is* the cluster's active tier: the hot subsets in
        ``replicated_tags`` have R copies precisely because a session
        without them is useless, so their total loss always raises.  An
        unreplicated tag is by policy the MISC data the paper allows a
        degraded session to load without.
        """
        return base_tag(tag) not in self.replicated_tags

    def _record_degraded(self, logical: str, tag: str, reason: str) -> None:
        super()._record_degraded(logical, tag, reason)
        self._counters["degraded"].inc()

    def _tier_counters(self) -> Dict[str, object]:
        """The tier events the front counts.  Tiers resolve only here, so
        a node's own ``lod_*`` series stay still behind the front."""
        return {
            "routed": self._counters["lod_routed"],
            "fallback": self._counters["lod_fallback"],
        }

    # -- metadata --------------------------------------------------------------------

    def label_map(self, logical: str) -> LabelMap:
        if logical not in self._label_maps:
            raise LabelIndexError(f"no label map for {logical!r}")
        return self._label_maps[logical]

    def _stored_tags(self, logical: str) -> List[str]:
        if logical not in self._catalog:
            raise LabelIndexError(f"unknown dataset {logical!r}")
        return self._catalog[logical]

    def chunks_nbytes(self, logical: str, tag: str, chunks) -> int:
        holder = self._any_holder(logical, tag).ada
        return holder.chunks_nbytes(logical, tag, chunks)

    def subset_nbytes(self, logical: str, tag: str) -> int:
        return self._any_holder(logical, tag).ada.subset_nbytes(logical, tag)

    def _delete_stored(self, logical: str) -> int:
        """Every holder's copy, plus the routing state keyed on it."""
        freed = 0
        holders = set()
        for tag in self._catalog.pop(logical, []):
            for name in self._placement.pop((logical, tag), []):
                freed += self.nodes[name].ada.plfs.delete_subset(logical, tag)
                holders.add(name)
            self._affinity.pop((logical, tag), None)
        # One scan of each holder's cache, however many tags it held.
        for name in sorted(holders):
            cache = self.nodes[name].ada.block_cache
            if cache is not None:
                cache.invalidate(logical=logical)
        self._promoted = {p for p in self._promoted if p[0] != logical}
        return freed

    # -- rebalancing -------------------------------------------------------------

    def add_node(self, node: ShardNode) -> Generator:
        """Process: join a node and migrate the keys it now owns.

        Only ring-adjacent ranges move (consistent hashing's minimal-
        movement property).  Each moved subset is read from a surviving
        current holder and written to its new owner through the normal
        coalesced chunk-run write path, *then* the placement entry flips
        and the stale copy is dropped -- reads keep resolving against
        the old holders for the whole transfer, so migration overlaps
        serving.  Returns ``{"keys_moved": ..., "bytes_moved": ...}``.
        """
        self._register(node)
        stats = yield from self._rebalance()
        self.events.append(
            {"t": self.sim.now, "event": "add_node", "node": node.name, **stats}
        )
        return stats

    def drain_node(self, name: str) -> Generator:
        """Process: migrate a node's keys away, then remove it from the ring.

        The inverse of :meth:`add_node`: the ring drops the node first
        (so targets no longer include it), every key it held migrates to
        the new owner set, and the node leaves the deployment.
        """
        if name not in self.nodes:
            raise ConfigurationError(f"unknown shard node {name!r}")
        self.ring.remove(name)
        stats = yield from self._rebalance(draining=name)
        node = self.nodes.pop(name)
        node.kill()
        self.events.append(
            {"t": self.sim.now, "event": "drain_node", "node": name, **stats}
        )
        return stats

    def _rebalance(self, draining: Optional[str] = None) -> Generator:
        """Process: converge placement onto the ring's current targets."""
        keys_moved = 0
        bytes_moved = 0
        with span(self.sim, "cluster.rebalance", draining=draining or "") as sp:
            for key in sorted(self._placement):
                logical, tag = key
                current = self._placement[key]
                desired = self.targets(logical, tag)
                additions = [n for n in desired if n not in current]
                for dest_name in additions:
                    moved = yield from self._migrate_subset(
                        logical, tag, current, dest_name
                    )
                    bytes_moved += moved
                if additions:
                    keys_moved += 1
                if current != desired:
                    # Flip routing only after every new copy landed.
                    self._placement[key] = list(desired)
                    self._affinity.pop(key, None)
                    for stale in current:
                        if stale in desired or stale not in self.nodes:
                            continue
                        node = self.nodes[stale]
                        node.ada.plfs.delete_subset(logical, tag)
                        if node.ada.block_cache is not None:
                            node.ada.block_cache.invalidate(logical=logical)
            sp.tag(keys_moved=keys_moved, bytes_moved=bytes_moved)
        self._counters["keys_moved"].inc(keys_moved)
        self._counters["bytes_moved"].inc(bytes_moved)
        return {"keys_moved": keys_moved, "bytes_moved": bytes_moved}

    def _migrate_subset(
        self,
        logical: str,
        tag: str,
        sources: List[str],
        dest_name: str,
    ) -> Generator:
        """Process: copy one subset to ``dest`` via the coalesced write path."""
        source = None
        for name in sources:
            if name in self.nodes and self.nodes[name].alive:
                source = self.nodes[name]
                break
        if source is None:
            raise NodeDownError(
                f"{logical}#{tag}: no live source to migrate from"
            )
        dest = self.nodes[dest_name]
        objs = yield from source.ada.determinator.retriever.retrieve_chunks(
            logical, tag
        )
        entries = [(tag, obj.data) for obj in objs]
        yield from dest.ada.determinator.dispatcher.dispatch_run(logical, entries)
        return sum(obj.nbytes for obj in objs)

    # -- reporting ----------------------------------------------------------------

    def node_loads(self) -> Dict[str, Dict[str, object]]:
        return {
            name: {
                "alive": node.alive,
                "inflight": node.inflight,
                "served_bytes": node.served_bytes,
                "queued_device_s": node.backlog()[0] / 1e9,
            }
            for name, node in sorted(self.nodes.items())
        }

    def stats(self) -> Dict[str, object]:
        """Live cluster state the registry does not hold as counts (the
        ``cluster_*``/``shard_*`` families carry those)."""
        return {
            "nodes": self.node_loads(),
            "replicas": self.replicas,
            "replicated_tags": list(self.replicated_tags),
            "placement_keys": len(self._placement),
            "degraded": list(self.degraded),
        }

    def _landed_on(self, logical: str, tag: str) -> str:
        return ",".join(self._placement.get((logical, tag), []))

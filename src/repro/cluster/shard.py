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
  ownership.
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

The front has no fault site of its own: a holder's device or file-system
fault (``dev:``/``fs:`` sites of a per-node plan) fails the read over to
the next replica, and a crash is :meth:`ShardedADA.kill_node`.
Membership is fixed at construction: a killed node stays on the ring and
in every holder list, so a key's holders never change after its first
store.
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
    every other key keeps its owners.
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

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"ShardNode({self.name!r}, {state}, inflight={self.inflight})"


class ShardedADA(DataPlane):
    """N ADA middleware nodes behind one single-middleware surface.

    Datasets partition across nodes by consistent-hashing their active
    tag: the nodes' ``PlacementPolicy.active_tags`` (the hot subset,
    ``replicated_tags`` here) and their ``lod:`` siblings land on its
    ``replicas`` holders, every other tag on its primary.  Reads route to
    the least-loaded live holder (sticky per ``(logical, tag)`` stream),
    writes go to every holder (primary first, so the primary's copy is
    never behind a replica's), and ``fetch_merged`` routes each tag on
    its own.

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
        metrics: Optional[MetricsRegistry] = None,
        affinity_bytes_slack: int = 256 * 1024,
    ):
        if not nodes:
            raise ConfigurationError("ShardedADA needs at least one node")
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        super().__init__(sim, metrics, {"shard": "front"})
        self.replicas = int(replicas)
        self.affinity_bytes_slack = int(affinity_bytes_slack)
        self.nodes: Dict[str, ShardNode] = {}
        self.ring = HashRing()
        #: Holder lists, ``(logical, tag) -> [node, ...]`` (primary first),
        #: written once at a key's first store and popped at its removal:
        #: membership never changes, so they equal the ring's targets, and
        #: a read looks them up instead of walking the ring.
        self._placement: Dict[Tuple[str, str], List[str]] = {}
        self._catalog: Dict[str, List[str]] = {}
        self._affinity: Dict[Tuple[str, str], str] = {}
        #: Failure/recovery timeline: kill and failover events in sim time.
        self.events: List[Dict[str, object]] = []
        #: (logical, tag, dead primary) already logged as promoted, so the
        #: timeline records each promotion once, not once per read.
        self._promoted: set = set()
        self._counters = {
            "routed": self.metrics.counter("cluster_routed_total"),
            "steers": self.metrics.counter("cluster_read_steers_total"),
            "failovers": self.metrics.counter("cluster_failovers_total"),
            "kills": self.metrics.counter("cluster_node_kills_total"),
            "degraded": self.metrics.counter("cluster_degraded_reads_total"),
            "lod_routed": self.metrics.counter("cluster_lod_routed_total"),
            "lod_fallback": self.metrics.counter(
                "cluster_lod_fallback_total"
            ),
        }
        for node in nodes:
            self._register(node)
        # The front does host-side preprocessing (categorize/encode)
        # once; nodes only see already-encoded per-tag subsets.
        first = self._first_ada()
        self.preprocessor = first.preprocessor
        self.policy = first.policy
        #: The cluster's active tier: the nodes' active tags get R copies.
        self.replicated_tags = tuple(sorted(first.placement.active_tags))

    # -- membership -----------------------------------------------------------

    def _register(self, node: ShardNode) -> None:
        if node.name in self.nodes:
            raise ConfigurationError(f"duplicate shard node {node.name!r}")
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

    def members(self) -> List[ADA]:
        return [node.ada for node in self.nodes.values()]

    def kill_node(self, name: str) -> None:
        """Fail-stop a node: no new requests route to it."""
        node = self.nodes[name]
        if not node.alive:
            return
        node.kill()
        self._counters["kills"].inc()
        self.events.append({"t": self.sim.now, "event": "kill", "node": name})

    # -- placement ------------------------------------------------------------

    def replication_for(self, tag: str) -> int:
        return self.replicas if base_tag(tag) in self.replicated_tags else 1

    def targets(self, logical: str, tag: str) -> List[str]:
        """Where the ring places ``(logical, tag)``.

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

        The node's own retriever retries transient device faults; a
        permanent one (``RetryExhaustedError`` too) fails over to the
        next live replica, as does a node killed out-of-band.
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
                    result = yield from factory(node)
                except PermanentFaultError as exc:
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
        holders = set()
        for tag in self._catalog.pop(logical, []):
            holders.update(self._placement.pop((logical, tag), []))
            self._affinity.pop((logical, tag), None)
        self._promoted = {p for p in self._promoted if p[0] != logical}
        # One container delete (and one cache scan) per holder, however
        # many of the dataset's tags it held.
        return sum(
            self.nodes[name].ada._delete_stored(logical)
            for name in sorted(holders)
        )

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

    def _landed_on(self, logical: str, tag: str) -> str:
        return ",".join(self._placement.get((logical, tag), []))

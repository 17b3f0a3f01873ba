"""Clients for the disaggregated graph store.

The paper separates compute from storage ("our multiversioned graph store
is sharded but fully accessible to all workers", §4.1; the Scatter-style
disaggregation of §7).  Workers therefore read the store through a fetch
boundary: whole vertex records cross it, and everything else is computed
worker-side from the fetched copy.

:class:`CachedRecordClient` makes that boundary explicit while itself
implementing the full :class:`~repro.store.api.GraphStore` protocol, so
engines, GC, and checkpointing run unmodified over it.  Every first touch
of a vertex on the read path performs a *fetch*: it is logged, charged
simulated latency, and held worker-side as a private copy.  Acknowledged
edge writes are patched into the held copies of both endpoints, so a
client never re-fetches what it just wrote (a failed write, or a patch
that does not fit, drops the copy; label, ``put_record`` and ``reclaim``
writes drop the copies they touch); a copy is never refreshed for another
client's write — one writer per store, the ingress node of §4.1.  Its two
subclasses are transports: :class:`RemoteStoreClient` reads a store in
this process, :class:`~repro.net.client.NetStoreClient` a
:class:`~repro.net.server.StoreServer` over RPC.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.store.api import CapabilityFacts, GraphStore, ReclaimStats
from repro.store.mvstore import (
    VertexRecord,
    apply_edge_write,
    copy_record,
    neighbor_states,
)
from repro.types import (
    EdgeKey,
    EdgeUpdate,
    Label,
    Timestamp,
    VertexId,
    normalize_direction,
)


@dataclass(frozen=True)
class FetchCosts:
    """Latency model for one fetch (simulated seconds)."""

    round_trip: float = 100e-6  # network RTT
    per_edge: float = 0.2e-6  # serialization per adjacency entry


@dataclass
class FetchLog:
    """Accounting for all fetches a worker performed."""

    fetches: int = 0
    records_bytes_proxy: int = 0  # adjacency entries shipped
    simulated_seconds: float = 0.0
    per_shard: Dict[int, int] = field(default_factory=dict)
    #: record reads served by a held copy / that had to fetch first
    hits: int = 0
    misses: int = 0

    def stats(self, entries: int) -> Dict[str, object]:
        """The client half of ``store_stats``: fetch accounting, and the
        held copies as the ``cache_*`` keys (``client_cache_entries`` is
        the one no backing store reports)."""
        total = self.hits + self.misses
        return {
            "fetches": self.fetches,
            "fetch_bytes_proxy": self.records_bytes_proxy,
            "fetch_simulated_seconds": self.simulated_seconds,
            "cache_entries": entries,
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "cache_hit_ratio": self.hits / total if total else 0.0,
            "client_cache_entries": entries,
        }


class CachedRecordClient(CapabilityFacts, GraphStore):
    """Worker-side client holding private copies of the records it read.

    One client per worker; the held copies are the worker's soft state and
    can be dropped at any time without correctness impact (paper §5.5:
    "The graphs cached at workers can be lost without affecting
    correctness").  ``cache_capacity`` bounds them, evicting FIFO.

    The capability facts are the backing store's.  A transport either
    forwards them or learns them once (``net``: from ``hello``) and keeps
    them current by this client's own writes flipping them — which is all
    there is to learn while it is the store's one writer.  A write flips
    them before it is sent: a fact set for a write the store then rejected
    costs reads, never answers.
    """

    def __init__(self, costs: FetchCosts, cache_capacity: Optional[int]) -> None:
        self.costs = costs
        self.cache_capacity = cache_capacity
        self.log = FetchLog()
        # vertex -> private copy of its fetched record, in fetch order
        self._cache: Dict[VertexId, VertexRecord] = {}

    # -- transport hooks: ``get_record`` is the fetch and must return a copy
    # nothing else holds (held copies are patched in place), or None; each
    # ``_send_*`` applies the protocol write of that name at the backing
    # store and raises if the store rejected it

    @abc.abstractmethod
    def _send_edge(
        self,
        u: VertexId,
        v: VertexId,
        ts: Timestamp,
        added: bool,
        label: Label = None,
        direction: Optional[str] = None,
    ) -> None:
        """``add_edge`` if ``added``, else ``delete_edge``."""

    @abc.abstractmethod
    def _send_edge_updates(self, ts: Timestamp, updates: List[EdgeUpdate]) -> None:
        """``apply_edge_updates``."""

    @abc.abstractmethod
    def _send_vertex_label(self, v: VertexId, ts: Timestamp, label: Label) -> None: ...

    @abc.abstractmethod
    def _send_record(self, v: VertexId, record: VertexRecord) -> None: ...

    @abc.abstractmethod
    def _send_reclaim(self, horizon: Timestamp) -> ReclaimStats: ...

    @abc.abstractmethod
    def _backing_stats(self) -> Dict[str, object]:
        """The backing store's own ``store_stats``."""

    # -- the fetch boundary ------------------------------------------------

    def _fetch(self, v: VertexId) -> VertexRecord:
        """The held copy of ``v``; the first touch fetches and holds it."""
        held = self._cache.get(v)
        if held is not None:
            self.log.hits += 1
            return held
        self.log.misses += 1
        # a missing vertex reads as empty
        record = self.get_record(v) or VertexRecord()
        entries = self._hold(v, record)
        self.log.simulated_seconds += (
            self.costs.round_trip + entries * self.costs.per_edge
        )
        return record

    def _hold(self, v: VertexId, record: VertexRecord) -> int:
        """Charge one shipped record and hold it, FIFO-evicting at capacity.

        Returns its entry count: the caller charges the latency, one round
        trip per single fetch or per batch of them.
        """
        entries = sum(map(len, record.edges.values()))
        self.log.fetches += 1
        self.log.records_bytes_proxy += max(entries, 1)
        shard = self.shards.shard_of(v)
        self.log.per_shard[shard] = self.log.per_shard.get(shard, 0) + 1
        if (
            self.cache_capacity is not None
            and len(self._cache) >= self.cache_capacity
        ):
            if not self.cache_capacity:
                return entries  # capacity 0 holds nothing
            self._cache.pop(next(iter(self._cache)))  # FIFO eviction
        self._cache[v] = record
        return entries

    def drop_cache(self) -> None:
        """Simulate a worker restart: soft state vanishes."""
        self._cache.clear()

    def _invalidate(self, *vertices: VertexId) -> None:
        """A write replaced these records; drop the held copies."""
        for v in vertices:
            self._cache.pop(v, None)

    def _edge_write(self, ts: Timestamp, edges, send, *args) -> None:
        """Send an edge write with ``send(*args)``, then write it through.

        ``edges`` lists ``(u, v, added[, label, direction])`` per update
        sent, ``direction`` normalized.  Acknowledged, each is patched into
        the copies held of ``u`` and ``v``; a copy the patch does not fit
        is dropped.  If the send raises (rejected by the store, retries
        exhausted, a batch applied part way) what the store applied is
        unknown and every endpoint's copy is dropped: the fallback is a
        refetch on next touch, never a guess.
        """
        try:
            send(*args)
        except BaseException:
            self._invalidate(*(x for edge in edges for x in edge[:2]))
            raise
        for u, v, *patch in edges:
            for a, b in ((u, v), (v, u)):
                held = self._cache.get(a)
                if held is not None and not apply_edge_write(
                    held.edges, b, ts, *patch
                ):
                    del self._cache[a]

    # -- write path --------------------------------------------------------

    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        ts: Timestamp,
        label: Label = None,
        direction: Optional[str] = None,
    ) -> None:
        self._note_edge(label, direction)
        patch = (u, v, True, label, normalize_direction(u, v, direction))
        self._edge_write(ts, [patch], self._send_edge, u, v, ts, True, label, direction)

    def delete_edge(self, u: VertexId, v: VertexId, ts: Timestamp) -> None:
        self._edge_write(ts, [(u, v, False)], self._send_edge, u, v, ts, False)

    def apply_edge_updates(self, ts: Timestamp, updates) -> None:
        updates = list(updates)
        edges = [(e.u, e.v, e.added, e.label, e.direction) for e in updates]
        for _, _, _, label, direction in edges:
            self._note_edge(label, direction)
        self._edge_write(ts, edges, self._send_edge_updates, ts, updates)

    # a record-replacing write drops the copy first: sent or failed, it is
    # then refetched on next touch

    def set_vertex_label(self, v: VertexId, ts: Timestamp, label: Label) -> None:
        self._invalidate(v)
        if label is not None:
            self._has_vertex_labels = True
        self._send_vertex_label(v, ts, label)

    def put_record(self, v: VertexId, record) -> None:
        self._invalidate(v)
        self._note_record(record)
        self._send_record(v, record)

    # -- read path (computed from held copies) -----------------------------

    def neighbor_states_at(
        self, v: VertexId, ts: Timestamp
    ) -> Dict[VertexId, Tuple[bool, bool]]:
        """Union-view adjacency of ``v`` computed from the held copy."""
        return neighbor_states(self._fetch(v).edges, ts)

    def edge_alive_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> bool:
        return any(iv.alive_at(ts) for iv in self._fetch(u).edges.get(v, ()))

    def edge_updated_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> bool:
        return any(iv.updated_at(ts) for iv in self._fetch(u).edges.get(v, ()))

    def edge_label_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> Label:
        for iv in self._fetch(u).edges.get(v, ()):
            if iv.alive_at(ts):
                return iv.label
        return None

    def edge_direction_at(
        self, u: VertexId, v: VertexId, ts: Timestamp
    ) -> Optional[str]:
        for iv in self._fetch(u).edges.get(v, ()):
            if iv.alive_at(ts):
                return iv.direction
        return None

    def vertex_label_at(self, v: VertexId, ts: Timestamp) -> Label:
        return self._fetch(v).label_at(ts)

    # -- maintenance -------------------------------------------------------

    def reclaim(self, horizon: Timestamp) -> ReclaimStats:
        """GC the backing store; held copies may hold reclaimed versions,
        so they are dropped wholesale."""
        stats = self._send_reclaim(horizon)
        self.drop_cache()
        return stats

    def store_stats(self) -> Dict[str, object]:
        stats = self._backing_stats()
        stats["kind"] = self.kind
        stats.update(self.log.stats(len(self._cache)))
        return stats


class RemoteStoreClient(CachedRecordClient):
    """The in-process transport: a fetch copies a record of ``store``.

    The fetch is a method call charged simulated latency, which is what
    lets :class:`~repro.runtime.backend.SimulatedBackend` give each
    simulated machine a client of its own over one shared store.
    """

    kind = "remote"

    def __init__(
        self,
        store: GraphStore,
        costs: FetchCosts = FetchCosts(),
        cache_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(costs, cache_capacity)
        self.store = store

    # shard placement, access accounting and the capability facts belong to
    # the backing store; forwarding the facts also sees writes that did not
    # come through this client (the simulated backend's per-machine clients
    # read a store the session writes)

    @property
    def shards(self):
        return self.store.shards

    @property
    def access_stats(self):
        return self.store.access_stats

    @property
    def has_vertex_labels(self) -> bool:
        return getattr(self.store, "has_vertex_labels", True)

    @property
    def has_edge_labels(self) -> bool:
        return getattr(self.store, "has_edge_labels", True)

    @property
    def has_directions(self) -> bool:
        return getattr(self.store, "has_directions", True)

    # -- transport ---------------------------------------------------------

    def get_record(self, v: VertexId) -> Optional[VertexRecord]:
        return copy_record(self.store.get_record(v))

    def _send_edge(
        self,
        u: VertexId,
        v: VertexId,
        ts: Timestamp,
        added: bool,
        label: Label = None,
        direction: Optional[str] = None,
    ) -> None:
        if added:
            self.store.add_edge(u, v, ts, label=label, direction=direction)
        else:
            self.store.delete_edge(u, v, ts)

    def _send_edge_updates(self, ts: Timestamp, updates: List[EdgeUpdate]) -> None:
        self.store.apply_edge_updates(ts, updates)

    def _send_vertex_label(self, v: VertexId, ts: Timestamp, label: Label) -> None:
        self.store.set_vertex_label(v, ts, label)

    def _send_record(self, v: VertexId, record: VertexRecord) -> None:
        self.store.put_record(v, record)

    def _send_reclaim(self, horizon: Timestamp) -> ReclaimStats:
        return self.store.reclaim(horizon)

    def _backing_stats(self) -> Dict[str, object]:
        return self.store.store_stats()

    # -- the rest of the protocol reads the backing store directly ---------

    def ensure_vertex(self, v: VertexId) -> None:
        self.store.ensure_vertex(v)

    def has_vertex(self, v: VertexId) -> bool:
        return self.store.has_vertex(v)

    def num_vertices(self) -> int:
        return self.store.num_vertices()

    def vertices(self) -> Iterator[VertexId]:
        return self.store.vertices()

    @property
    def latest_timestamp(self) -> Timestamp:
        return self.store.latest_timestamp

    def set_latest_timestamp(self, ts: Timestamp) -> None:
        self.store.set_latest_timestamp(ts)

    def updated_keys_in(self, ts: Timestamp) -> Dict[EdgeKey, bool]:
        return self.store.updated_keys_in(ts)

    def iter_records(self):
        return self.store.iter_records()

"""A client for the disaggregated graph store.

The paper separates compute from storage ("our multiversioned graph store
is sharded but fully accessible to all workers", §4.1; the Scatter-style
disaggregation of §7).  Workers therefore read the store through a fetch
boundary: whole vertex records cross it, and everything else is computed
worker-side from the fetched copy.

:class:`RemoteStoreClient` makes that boundary explicit while itself
implementing the full :class:`~repro.store.api.GraphStore` protocol, so
engines, GC, and checkpointing run unmodified over it.  Every first touch
of a vertex on the read path performs a *fetch*: it is logged, charged
simulated latency, and cached worker-side.  Edge writes pass through to
the inner store and *write through* to the fetched copies of both
endpoints, so a client never re-fetches what it just wrote (label,
``put_record`` and ``reclaim`` writes still drop the copies they touch);
a copy is never refreshed for another client's write — one writer per
store, the ingress node of §4.1.  The accumulated accounting feeds cost
analyses without any tracing hooks in the engine itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from repro.store.api import GraphStore, ReclaimStats
from repro.store.mvstore import BaseRecordStore, neighbor_states
from repro.types import EdgeKey, Label, Timestamp, VertexId


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
        """The client half of ``store_stats``.  The fetched-copy cache takes
        the ``cache_*`` keys from the inner (or server) store's
        ``NeighborCache``, which a client reading whole records never uses."""
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


class RemoteStoreClient(GraphStore):
    """Worker-side client over a (conceptually remote) store.

    One client per worker; the cache is the worker's soft state and can be
    dropped at any time without correctness impact (paper §5.5: "The
    graphs cached at workers can be lost without affecting correctness").
    """

    kind = "remote"

    def __init__(
        self,
        store: BaseRecordStore,
        costs: FetchCosts = FetchCosts(),
        cache_capacity: Optional[int] = None,
    ) -> None:
        self.store = store
        self.costs = costs
        self.cache_capacity = cache_capacity
        self.log = FetchLog()
        # vertex -> full interval adjacency copy (the fetched record)
        self._cache: Dict[VertexId, dict] = {}

    # shard placement and access accounting belong to the inner store

    @property
    def shards(self):
        return self.store.shards

    @property
    def access_stats(self):
        return self.store.access_stats

    # -- the fetch boundary ------------------------------------------------

    def _fetch(self, v: VertexId) -> dict:
        cached = self._cache.get(v)
        if cached is not None:
            self.log.hits += 1
            return cached
        self.log.misses += 1
        record = self.store.get_record(v)
        edges = dict(record.edges) if record is not None else {}
        entries = sum(len(versions) for versions in edges.values())
        self.log.fetches += 1
        self.log.records_bytes_proxy += max(entries, 1)
        self.log.simulated_seconds += (
            self.costs.round_trip + entries * self.costs.per_edge
        )
        shard = self.store.shards.shard_of(v)
        self.log.per_shard[shard] = self.log.per_shard.get(shard, 0) + 1
        if (
            self.cache_capacity is not None
            and len(self._cache) >= self.cache_capacity
        ):
            self._cache.pop(next(iter(self._cache)))  # FIFO eviction
        self._cache[v] = edges
        return edges

    def drop_cache(self) -> None:
        """Simulate a worker restart: soft state vanishes."""
        self._cache.clear()

    def _invalidate(self, *vertices: VertexId) -> None:
        """A write replaced these records; drop the fetched copies."""
        for v in vertices:
            self._cache.pop(v, None)

    def _write_through(self, u: VertexId, v: VertexId) -> None:
        """The inner store applied an edge write on {u, v}.  A held copy is
        ``dict(record.edges)``, its version lists *are* the record's, so the
        interval is already in it (:func:`~repro.store.mvstore.\
        apply_edge_write` would double it): all it can lack is a new key."""
        for a, b in ((u, v), (v, u)):
            held = self._cache.get(a)
            if held is not None and b not in held:
                held[b] = self.store.get_record(a).edges[b]

    # -- write path (delegates to the inner store) -------------------------

    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        ts: Timestamp,
        label: Label = None,
        direction: Optional[str] = None,
    ) -> None:
        self.store.add_edge(u, v, ts, label=label, direction=direction)
        self._write_through(u, v)

    def delete_edge(self, u: VertexId, v: VertexId, ts: Timestamp) -> None:
        self.store.delete_edge(u, v, ts)
        self._write_through(u, v)

    def set_vertex_label(self, v: VertexId, ts: Timestamp, label: Label) -> None:
        self.store.set_vertex_label(v, ts, label)
        self._invalidate(v)

    def ensure_vertex(self, v: VertexId) -> None:
        self.store.ensure_vertex(v)

    # -- read interface (computed from fetched records) --------------------

    def neighbor_states_at(
        self, v: VertexId, ts: Timestamp
    ) -> Dict[VertexId, Tuple[bool, bool]]:
        """Union-view adjacency of ``v`` computed from the fetched record."""
        return neighbor_states(self._fetch(v), ts)

    def edge_alive_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> bool:
        return any(iv.alive_at(ts) for iv in self._fetch(u).get(v, ()))

    def edge_updated_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> bool:
        return any(iv.updated_at(ts) for iv in self._fetch(u).get(v, ()))

    def edge_label_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> Label:
        for iv in self._fetch(u).get(v, ()):
            if iv.alive_at(ts):
                return iv.label
        return None

    def edge_direction_at(
        self, u: VertexId, v: VertexId, ts: Timestamp
    ) -> Optional[str]:
        for iv in self._fetch(u).get(v, ()):
            if iv.alive_at(ts):
                return iv.direction
        return None

    def vertex_label_at(self, v: VertexId, ts: Timestamp) -> Label:
        # labels live with the vertex record; fetching it charges the shard
        self._fetch(v)
        return self.store.vertex_label_at(v, ts)

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

    # -- record transfer ---------------------------------------------------

    def get_record(self, v: VertexId):
        return self.store.get_record(v)

    def iter_records(self):
        return self.store.iter_records()

    def put_record(self, v: VertexId, record) -> None:
        self.store.put_record(v, record)
        self._invalidate(v)

    # -- maintenance -------------------------------------------------------

    def reclaim(self, horizon: Timestamp) -> ReclaimStats:
        """GC the inner store; fetched copies may hold reclaimed versions,
        so the client cache is dropped wholesale."""
        stats = self.store.reclaim(horizon)
        self.drop_cache()
        return stats

    def window_completed(self, ts: Timestamp) -> None:
        self.store.window_completed(ts)

    def store_stats(self) -> Dict[str, object]:
        stats = self.store.store_stats()
        stats["kind"] = self.kind
        stats.update(self.log.stats(len(self._cache)))
        return stats

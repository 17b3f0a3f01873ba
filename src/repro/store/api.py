"""The ``GraphStore`` protocol: one storage contract for every backend.

The paper's store is a swappable component — "our multiversioned graph
store is sharded but fully accessible to all workers" (§4.1), with the
disaggregated variant of §7 reading it through a fetch boundary.  This
module pins down the contract the rest of the reproduction programs
against, so the in-process flat store (:class:`~repro.store.mvstore.\
MultiVersionStore`), the physically sharded store (:class:`~repro.store.\
sharded.ShardedStore`), and the disaggregated client (:class:`~repro.\
store.remote.RemoteStoreClient`) are interchangeable everywhere: views,
engine, ingress, GC, checkpointing, and every execution backend.

The contract has four parts:

* a **write path** applied in non-decreasing timestamp order (ingress
  only): :meth:`GraphStore.add_edge`, :meth:`GraphStore.delete_edge`,
  :meth:`GraphStore.set_vertex_label`, :meth:`GraphStore.ensure_vertex`;
* a **timestamped read path** where every query is *as of* a snapshot;
  :meth:`GraphStore.neighbor_states_at` is the primitive record fetch
  (list-shaped reads derive from it), the ``edge_*_at`` probes answer
  single-edge questions;
* a **record transfer path** (:meth:`GraphStore.get_record`,
  :meth:`GraphStore.iter_records`, :meth:`GraphStore.put_record`) used by
  the fetch boundary and checkpointing, so neither needs the store's
  internals;
* a **maintenance path**: :meth:`GraphStore.reclaim` (garbage collection
  behind the protocol, returning per-store stats) and :meth:`GraphStore.\
  store_stats` (the run-report surface).

Derived reads (``neighbors_at``, ``edges_at``, ``as_adjacency``, counts)
are implemented here once, on top of the primitives, so a new store kind
only implements the genuinely storage-specific surface.

Beside the contract, a store may declare :data:`CAPABILITY_FACTS` — "no
vertex label, edge label or direction was ever stored" — which the engine
reads once per task to skip reads whose answer is known to be None.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import UnknownVertexError
from repro.graph.adjacency import AdjacencyGraph
from repro.store.shard import AccessStats, ShardMap
from repro.types import EdgeKey, Label, Timestamp, VertexId

#: Names accepted by :func:`make_store` and the CLI ``mine --store`` flag.
STORE_NAMES = ("mv", "sharded", "remote", "net")

#: The capability facts a store may declare.  Each is monotone — False
#: until the first write that stores a non-None vertex label, edge label or
#: direction, True from then on — and while one is False every
#: ``vertex_label_at`` / ``edge_label_at`` / ``edge_direction_at`` answer
#: it covers is None, so a reader may skip the read.  They are not members
#: of :class:`GraphStore`: a store that declares none (a proxy, a test
#: double) reads as having all three, the answer that is always correct.
CAPABILITY_FACTS = ("has_vertex_labels", "has_edge_labels", "has_directions")


def capability_facts(store) -> Dict[str, bool]:
    """``store``'s capability facts; one it does not declare reads True."""
    return {name: bool(getattr(store, name, True)) for name in CAPABILITY_FACTS}


class CapabilityFacts:
    """Read-only :data:`CAPABILITY_FACTS` over private flags.

    Mixed into the stores that keep the facts (``BaseRecordStore``,
    ``CachedRecordClient``); each write site that can store a label or a
    direction sets the matching flag, and nothing ever clears one.
    """

    _has_vertex_labels = False
    _has_edge_labels = False
    _has_directions = False

    # read once per task by the engine: a C getter costs no Python frame
    has_vertex_labels = property(
        attrgetter("_has_vertex_labels"), doc="A vertex label was ever stored."
    )
    has_edge_labels = property(
        attrgetter("_has_edge_labels"), doc="An edge label was ever stored."
    )
    has_directions = property(
        attrgetter("_has_directions"), doc="An edge direction was ever stored."
    )

    def _note_edge(self, label, direction) -> None:
        """Flip what an added edge carries."""
        if label is not None:
            self._has_edge_labels = True
        if direction is not None:
            self._has_directions = True

    def _note_record(self, record) -> None:
        """Flip what an installed :class:`~repro.store.mvstore.VertexRecord`
        carries."""
        if any(label is not None for _, label in record.label_history):
            self._has_vertex_labels = True
        for versions in record.edges.values():
            for iv in versions:
                self._note_edge(iv.label, iv.direction)


@dataclass
class ReclaimStats:
    """What one :meth:`GraphStore.reclaim` pass dropped.

    ``reclaimed`` counts undirected edge versions (each version is shared
    by both endpoint records but counted once).
    """

    horizon: Timestamp = 0
    #: undirected edge versions dropped (deleted at or before the horizon)
    reclaimed: int = 0
    #: reclaimed versions per owning shard (shard of the lower endpoint)
    per_shard: Dict[int, int] = field(default_factory=dict)
    #: delta-index edge facts pruned alongside the dropped versions
    index_pruned: int = 0


class GraphStore(abc.ABC):
    """Abstract multiversioned graph store (paper §4.1, §5.2).

    Implementations expose two shared accounting objects: ``shards`` (a
    :class:`~repro.store.shard.ShardMap` giving the deterministic record
    placement) and ``access_stats`` (an :class:`~repro.store.shard.\
    AccessStats` charged by :meth:`fetch_record`).  All reads are *as of*
    a timestamp; updates must arrive in non-decreasing timestamp order,
    which is what makes past snapshots immutable and lets workers read
    without synchronization (§4.5).
    """

    #: registry name of this store kind ("mv", "sharded", "remote")
    kind: str = "?"

    shards: ShardMap
    access_stats: AccessStats

    # -- write path (ingress only) ----------------------------------------

    @abc.abstractmethod
    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        ts: Timestamp,
        label: Label = None,
        direction: Optional[str] = None,
    ) -> None:
        """Add edge {u, v} at ``ts``; raises if it is already alive."""

    @abc.abstractmethod
    def delete_edge(self, u: VertexId, v: VertexId, ts: Timestamp) -> None:
        """Tombstone edge {u, v} at ``ts``; the version stays until GC."""

    @abc.abstractmethod
    def set_vertex_label(self, v: VertexId, ts: Timestamp, label: Label) -> None:
        """Append a label change effective from snapshot ``ts`` onward."""

    @abc.abstractmethod
    def ensure_vertex(self, v: VertexId) -> None:
        """Create an (isolated) vertex record if it does not exist."""

    def apply_edge_updates(self, ts: Timestamp, updates) -> None:
        """Apply one window's edge updates at the shared timestamp ``ts``.

        ``updates`` is an ordered iterable of :class:`~repro.types.\
        EdgeUpdate`; they apply strictly in list order, so the default —
        the per-update loop every in-process store wants — and any
        coalescing override (the ``net`` store ships whole batches as one
        ``put_edges`` RPC) leave the store in the identical state.
        """
        for upd in updates:
            if upd.added:
                self.add_edge(
                    upd.u, upd.v, ts, label=upd.label, direction=upd.direction
                )
            else:
                self.delete_edge(upd.u, upd.v, ts)

    # -- read path (timestamped) ------------------------------------------

    @property
    @abc.abstractmethod
    def latest_timestamp(self) -> Timestamp:
        """The highest timestamp any applied update carried."""

    @abc.abstractmethod
    def has_vertex(self, v: VertexId) -> bool: ...

    @abc.abstractmethod
    def num_vertices(self) -> int: ...

    @abc.abstractmethod
    def vertices(self) -> Iterator[VertexId]: ...

    @abc.abstractmethod
    def vertex_label_at(self, v: VertexId, ts: Timestamp) -> Label: ...

    @abc.abstractmethod
    def edge_alive_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> bool: ...

    @abc.abstractmethod
    def edge_updated_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> bool:
        """Whether {u, v} was added or deleted exactly at ``ts``."""

    @abc.abstractmethod
    def edge_label_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> Label: ...

    @abc.abstractmethod
    def edge_direction_at(
        self, u: VertexId, v: VertexId, ts: Timestamp
    ) -> Optional[str]: ...

    @abc.abstractmethod
    def neighbor_states_at(
        self, v: VertexId, ts: Timestamp
    ) -> Dict[VertexId, Tuple[bool, bool]]:
        """Adjacency map of ``v`` for window ``ts``: nbr -> (pre, post).

        The primitive record read: for every union-view neighbor, whether
        the edge is alive in the pre-window snapshot (``ts - 1``) and the
        post-window snapshot (``ts``).  Implementations may return a
        cached mapping shared between callers — treat it as read-only.
        """

    @abc.abstractmethod
    def updated_keys_in(self, ts: Timestamp) -> Dict[EdgeKey, bool]:
        """Edges updated exactly at ``ts``: key -> added (True) / deleted.

        The DETECT_CHANGES membership set for one window.
        """

    # -- derived reads (implemented once, over the primitives) -------------

    def fetch_record(self, v: VertexId):
        """Fetch a vertex record, charging the owning shard (accounting)."""
        rec = self.get_record(v)
        if rec is None:
            raise UnknownVertexError(v)
        self.access_stats.record(self.shards.shard_of(v))
        return rec

    def neighbors_at(self, v: VertexId, ts: Timestamp) -> List[VertexId]:
        """Neighbors of ``v`` alive at snapshot ``ts``, sorted by id."""
        states = self.neighbor_states_at(v, ts)
        return sorted(dst for dst, (_, post) in states.items() if post)

    def union_neighbors_at(self, v: VertexId, ts: Timestamp) -> List[VertexId]:
        """Neighbors alive at ``ts`` or ``ts - 1`` (the exploration view)."""
        return sorted(self.neighbor_states_at(v, ts))

    def degree_at(self, v: VertexId, ts: Timestamp) -> int:
        return len(self.neighbors_at(v, ts))

    def edges_at(self, ts: Timestamp) -> Iterator[EdgeKey]:
        """All edges alive at snapshot ``ts`` (each yielded once, u < v)."""
        for u, rec in self.iter_records():
            for v, versions in rec.edges.items():
                if u < v and any(iv.alive_at(ts) for iv in versions):
                    yield (u, v)

    def num_edges_at(self, ts: Timestamp) -> int:
        return sum(1 for _ in self.edges_at(ts))

    def as_adjacency(self, ts: Timestamp) -> AdjacencyGraph:
        """Materialize the full snapshot at ``ts`` as a plain graph."""
        g = AdjacencyGraph()
        for v in self.vertices():
            g.add_vertex(v)
            label = self.vertex_label_at(v, ts)
            if label is not None:
                g.set_vertex_label(v, label)
        for u, v in self.edges_at(ts):
            g.add_edge(
                u,
                v,
                label=self.edge_label_at(u, v, ts),
                direction=self.edge_direction_at(u, v, ts),
            )
        return g

    # -- record transfer (fetch boundary, checkpointing) -------------------

    @abc.abstractmethod
    def get_record(self, v: VertexId):
        """The :class:`~repro.store.mvstore.VertexRecord` of ``v``, or None.

        The fetch-boundary read: whole records cross it, everything else
        is computed from the fetched copy.
        """

    @abc.abstractmethod
    def iter_records(self) -> Iterator[Tuple[VertexId, object]]:
        """Every ``(vertex, record)`` pair, for checkpointing and export."""

    @abc.abstractmethod
    def put_record(self, v: VertexId, record) -> None:
        """Install a complete record (checkpoint restore); updates indexes."""

    @abc.abstractmethod
    def set_latest_timestamp(self, ts: Timestamp) -> None:
        """Restore the write clock after :meth:`put_record` replay."""

    # -- maintenance -------------------------------------------------------

    @abc.abstractmethod
    def reclaim(self, horizon: Timestamp) -> ReclaimStats:
        """Drop edge versions deleted at or before ``horizon``.

        Exploration of any window with timestamp > ``horizon`` only reads
        snapshots at ``ts`` and ``ts - 1 >= horizon``, and a version with
        ``deleted_ts <= horizon`` is dead in all such snapshots, so
        removal is safe.  Sub-horizon reads are undefined afterwards.
        """

    def window_completed(self, ts: Timestamp) -> None:
        """No-op; nothing in the pipeline calls it.

        Kept only because ``benchmarks/e2e/probe.py`` binds it by name on
        its timing proxy; it goes once that binding does.
        """

    def close(self) -> None:
        """Release store-held resources (sockets, embedded servers).

        In-process stores hold none, so the default is a no-op; the
        ``net`` kind overrides this.  Safe to call more than once.
        """

    def tombstone_count(self) -> int:
        """Number of fully dead edge versions currently retained."""
        count = 0
        for u, rec in self.iter_records():
            for v, versions in rec.edges.items():
                if u < v:
                    count += sum(1 for iv in versions if iv.deleted_ts is not None)
        return count

    def memory_items(self) -> int:
        """Total adjacency entries held (a proxy for memory footprint)."""
        return sum(
            len(versions)
            for _, rec in self.iter_records()
            for versions in rec.edges.values()
        )

    @abc.abstractmethod
    def store_stats(self) -> Dict[str, object]:
        """Flat stats dict for run reports: delta-index size, access skew
        and, on the clients, held-copy counters."""


def make_store(
    kind: str,
    *,
    num_shards: int = 8,
    graph: Optional[AdjacencyGraph] = None,
    ts: Timestamp = 1,
    cache_size: Optional[int] = None,
    addr: Optional[str] = None,
    batch_size: Optional[int] = None,
    telemetry=None,
) -> GraphStore:
    """Construct a store by registry name (see :data:`STORE_NAMES`).

    ``graph`` bulk-loads an initial snapshot at timestamp ``ts``.
    ``cache_size`` (``remote`` and ``net`` only) caps the client's held
    record copies.  The ``remote`` kind wraps a flat in-process store behind
    a :class:`~repro.store.remote.RemoteStoreClient` fetch boundary, priced
    by the default :class:`~repro.store.remote.FetchCosts`.  The ``net``
    kind reads and writes over real TCP: with ``addr`` (``"host:port"``) it
    connects to a running ``repro serve-store`` server, without one it
    spawns an embedded loopback server of its own.  ``batch_size`` (also
    ``net`` only, the CLI's ``mine --store-batch``) sets its records-per-
    ``multi_get`` chunk.  ``telemetry`` (only meaningful for ``net``)
    traces the client's RPCs — and propagates trace context to the
    server on every request.
    """
    from repro.store.mvstore import MultiVersionStore
    from repro.store.sharded import ShardedStore

    if addr is not None and kind != "net":
        raise ValueError(f"addr= only applies to the 'net' store, not {kind!r}")
    if batch_size is not None and kind != "net":
        raise ValueError(
            f"batch_size= only applies to the 'net' store, not {kind!r}"
        )
    if cache_size is not None and kind not in ("remote", "net"):
        raise ValueError(
            f"cache_size= only applies to the 'remote' and 'net' stores, "
            f"not {kind!r}"
        )
    if kind in ("remote", "net"):
        from repro.store.remote import RemoteStoreClient

        if kind == "remote":
            inner = (
                MultiVersionStore.from_adjacency(graph, ts=ts, num_shards=num_shards)
                if graph is not None
                else MultiVersionStore(num_shards=num_shards)
            )
            return RemoteStoreClient(inner, cache_capacity=cache_size)
        from repro.net.client import BATCH_SIZE, NetStoreClient

        return NetStoreClient(
            addr,
            cache_capacity=cache_size,
            batch_size=batch_size if batch_size is not None else BATCH_SIZE,
            num_shards=num_shards,
            graph=graph,
            ts=ts,
            telemetry=telemetry,
        )
    if kind == "mv":
        cls = MultiVersionStore
    elif kind == "sharded":
        cls = ShardedStore
    else:
        raise ValueError(
            f"unknown store {kind!r}; expected one of {', '.join(STORE_NAMES)}"
        )
    if graph is not None:
        return cls.from_adjacency(graph, ts=ts, num_shards=num_shards)
    return cls(num_shards=num_shards)

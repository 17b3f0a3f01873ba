"""The timestamp-based, multiversioned graph store (paper sections 4.1, 5.2).

The paper's store is MongoDB in adjacency-list format: "Each vertex record
maintains a list of outgoing edges, identified by the destination endpoint of
the edge, and the edge timestamp and associated labels.  Deleted edges are
kept but marked with a special flag."  We reproduce that record layout
in-process:

* each vertex has a record holding a label history and an adjacency map;
* each adjacency entry keeps a list of :class:`EdgeInterval` versions —
  ``[added_ts, deleted_ts)`` half-open lifetimes — so the same edge can be
  deleted and re-added, and deleted edges remain queryable (tombstones) until
  garbage collection;
* all reads are *as of* a timestamp, via the view classes in
  :mod:`repro.store.snapshot`.

Updates must be applied in non-decreasing timestamp order (the ingress node
guarantees this); reads at any past timestamp then return consistent
snapshots without synchronization, which is what lets workers run
independently (section 4.5).

:class:`BaseRecordStore` implements the full :class:`~repro.store.api.\
GraphStore` protocol over five record-map primitives, layering in the
per-window :class:`~repro.store.delta.DeltaIndex` (O(1) updated-at probes).
:class:`MultiVersionStore` is the flat-dict record map; the physically
sharded map lives in :mod:`repro.store.sharded`.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import InvalidUpdateError
from repro.graph.adjacency import AdjacencyGraph
from repro.store.api import CapabilityFacts, GraphStore, ReclaimStats
from repro.store.delta import DeltaIndex
from repro.store.shard import AccessStats, ShardMap
from repro.types import (
    EdgeKey,
    Label,
    Timestamp,
    VertexId,
    edge_key,
    normalize_direction,
)


@dataclass(slots=True)
class EdgeInterval:
    """One version of an edge: alive during ``[added_ts, deleted_ts)``.

    ``direction`` is relative to the normalized (min, max) endpoint order:
    None = undirected, "fwd" = min->max, "rev" = max->min, "both".
    """

    added_ts: Timestamp
    deleted_ts: Optional[Timestamp] = None
    label: Label = None
    direction: Optional[str] = None

    def alive_at(self, ts: Timestamp) -> bool:
        return self.added_ts <= ts and (self.deleted_ts is None or ts < self.deleted_ts)

    def updated_at(self, ts: Timestamp) -> bool:
        """Whether this version was added or deleted exactly at ``ts``."""
        return self.added_ts == ts or self.deleted_ts == ts


@dataclass(slots=True)
class VertexRecord:
    """Adjacency-list record for one vertex, as in the paper's store."""

    #: (timestamp, label) history, appended in timestamp order.
    label_history: List[Tuple[Timestamp, Label]] = field(default_factory=list)
    #: neighbor -> list of edge versions, oldest first.
    edges: Dict[VertexId, List[EdgeInterval]] = field(default_factory=dict)

    def label_at(self, ts: Timestamp) -> Label:
        """The vertex label in effect at snapshot ``ts`` (None if unset)."""
        result: Label = None
        for entry_ts, label in self.label_history:
            if entry_ts > ts:
                break
            result = label
        return result


def neighbor_states(
    edges: Dict[VertexId, List[EdgeInterval]], ts: Timestamp
) -> Dict[VertexId, Tuple[bool, bool]]:
    """Union-view adjacency of one record for window ``ts``: nbr -> (pre, post).

    The one record -> states derivation every store kind reads through:
    for each neighbor, whether the edge is alive in the pre-window snapshot
    (``ts - 1``) and the post-window snapshot (``ts``); neighbors dead in
    both (tombstones, version lists emptied by ``put_record``) are left
    out.  Nearly every entry of a record is one version alive since before
    the window, which costs two attribute reads and no method call.
    """
    out: Dict[VertexId, Tuple[bool, bool]] = {}
    pre_ts = ts - 1
    for dst, versions in edges.items():
        if not versions:
            continue
        latest = versions[-1]
        if latest.deleted_ts is None and latest.added_ts <= pre_ts:
            out[dst] = (True, True)
            continue
        pre = post = False
        for iv in versions:
            added, deleted = iv.added_ts, iv.deleted_ts
            if added <= pre_ts and (deleted is None or pre_ts < deleted):
                pre = True
            if added <= ts and (deleted is None or ts < deleted):
                post = True
        if pre or post:
            out[dst] = (pre, post)
    return out


def apply_edge_write(
    edges: Dict[VertexId, List[EdgeInterval]],
    nbr: VertexId,
    ts: Timestamp,
    added: bool,
    label: Label = None,
    direction: Optional[str] = None,
) -> bool:
    """Write one acknowledged edge update through to a fetched copy.

    ``edges`` is one endpoint's copy of its adjacency, ``nbr`` the other
    endpoint, ``direction`` already normalized.  Does what the store did
    to its own record: an add appends an interval, a delete tombstones the
    current one.  Returns False, touching nothing, where the store would
    have rejected the update (add over a live or just-deleted interval,
    delete with no older live one): the copy is not the store's record,
    and the caller drops it rather than guess.
    """
    versions = edges.get(nbr)
    current = versions[-1] if versions else None
    if added:
        if current is not None and (
            current.deleted_ts is None or current.deleted_ts >= ts
        ):
            return False
        edges.setdefault(nbr, []).append(
            EdgeInterval(added_ts=ts, label=label, direction=direction)
        )
        return True
    if current is None or current.deleted_ts is not None or current.added_ts >= ts:
        return False
    current.deleted_ts = ts
    return True


def copy_record(record: Optional[VertexRecord]) -> Optional[VertexRecord]:
    """A copy of ``record`` sharing no list or interval with it, for a
    client to hold and patch with :func:`apply_edge_write`."""
    if record is None:
        return None
    return VertexRecord(
        list(record.label_history),
        {
            nbr: [
                EdgeInterval(iv.added_ts, iv.deleted_ts, iv.label, iv.direction)
                for iv in versions
            ]
            for nbr, versions in record.edges.items()
        },
    )


class BaseRecordStore(CapabilityFacts, GraphStore):
    """Protocol implementation over an abstract vertex-record map.

    Subclasses supply only the record-map primitives (``_get_rec`` /
    ``_ensure_record`` / ``_put_rec`` / ``_iter_items`` / ``_keys``); the
    write validation, interval bookkeeping, delta index, reclamation
    logic and capability facts are shared here.  A fact flips
    in ``set_vertex_label``, in an edge addition (``add_edge``,
    ``apply_edge_updates``) and in ``put_record``, on the first value that
    is not None.

    ``delta_index=False`` falls back to interval scans for updated-at
    probes — the reference the benchmark suite prices the indexed read
    path against.
    """

    def __init__(self, num_shards: int = 8, delta_index: bool = True) -> None:
        self._latest_ts: Timestamp = 0
        self.shards = ShardMap(num_shards)
        self.access_stats = AccessStats(num_shards=num_shards)
        self._delta = DeltaIndex()
        self._delta_enabled = delta_index
        #: the deletion log: ``(deleted_ts, u, v)``, ``u < v``, in time order,
        #: with an entry for every tombstone held (a ``put_record`` of both
        #: endpoints enters an edge twice; ``reclaim`` reads the version
        #: lists, so a repeated or stale entry costs one lookup)
        self._deleted: List[Tuple[Timestamp, VertexId, VertexId]] = []

    # -- record-map primitives (subclass responsibility) -------------------

    @abc.abstractmethod
    def _get_rec(self, v: VertexId) -> Optional[VertexRecord]:
        """The record of ``v``, or None."""

    @abc.abstractmethod
    def _ensure_record(self, v: VertexId) -> VertexRecord:
        """The record of ``v``, created if missing."""

    @abc.abstractmethod
    def _put_rec(self, v: VertexId, record: VertexRecord) -> None:
        """Install (or replace) the record of ``v``."""

    @abc.abstractmethod
    def _iter_items(self) -> Iterator[Tuple[VertexId, VertexRecord]]:
        """Every (vertex, record) pair, in a deterministic order."""

    @abc.abstractmethod
    def _keys(self) -> Iterator[VertexId]:
        """Every vertex id, in the same order as :meth:`_iter_items`."""

    @abc.abstractmethod
    def _contains(self, v: VertexId) -> bool: ...

    @abc.abstractmethod
    def _len(self) -> int: ...

    # -- write path (ingress only) -----------------------------------------

    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        ts: Timestamp,
        label: Label = None,
        direction: Optional[str] = None,
    ) -> None:
        """Add edge {u, v} at timestamp ``ts``.

        Raises :class:`InvalidUpdateError` if the edge is already alive at
        ``ts`` (the ingress sanitizer filters such updates out).
        """
        self._check_ts(ts)
        self._write_add(u, v, ts, label, direction)
        if self._delta_enabled:
            self._delta.note(ts, edge_key(u, v), True)
        self._latest_ts = ts

    def delete_edge(self, u: VertexId, v: VertexId, ts: Timestamp) -> None:
        """Mark edge {u, v} deleted at ``ts`` (tombstone; record is kept)."""
        self._check_ts(ts)
        self._write_delete(u, v, ts)
        if self._delta_enabled:
            self._delta.note(ts, edge_key(u, v), False)
        self._latest_ts = ts

    def apply_edge_updates(self, ts: Timestamp, updates) -> None:
        """Apply one window's edge updates at the shared timestamp ``ts``.

        What is the same for every update of a window — the timestamp
        check, the delta index's dict for ``ts``, the write clock — is done
        once; each update is validated and written by the code
        :meth:`add_edge` / :meth:`delete_edge` run, in list order.  An
        empty window checks and writes nothing, like zero calls of those.
        """
        if not updates:
            return
        self._check_ts(ts)
        noted = self._delta.window(ts) if self._delta_enabled else None
        wrote = False
        try:
            for upd in updates:
                u, v = upd.u, upd.v
                if upd.added:
                    self._write_add(u, v, ts, upd.label, upd.direction)
                else:
                    self._write_delete(u, v, ts)
                wrote = True
                if noted is not None:
                    noted[(u, v)] = upd.added  # an EdgeUpdate has u < v
        finally:
            # also when an update was rejected: the clock never trails a write
            if wrote:
                self._latest_ts = ts

    def _write_add(
        self,
        u: VertexId,
        v: VertexId,
        ts: Timestamp,
        label: Label,
        direction: Optional[str],
    ) -> None:
        """Validate and write one edge addition (``ts`` already checked)."""
        if u == v:
            raise InvalidUpdateError("self-loop edges are not supported")
        current = self._current_interval(u, v)
        if current is not None and current.alive_at(ts):
            raise InvalidUpdateError(f"edge ({u}, {v}) already exists at ts {ts}")
        if current is not None and current.deleted_ts == ts:
            raise InvalidUpdateError(
                f"edge ({u}, {v}) deleted and re-added in the same window"
            )
        interval = EdgeInterval(
            added_ts=ts,
            label=label,
            direction=normalize_direction(u, v, direction),
        )
        if label is not None:  # ``_note_edge``, inlined: once per update
            self._has_edge_labels = True
        if direction is not None:
            self._has_directions = True
        self._ensure_record(u).edges.setdefault(v, []).append(interval)
        self._ensure_record(v).edges.setdefault(u, []).append(interval)

    def _write_delete(self, u: VertexId, v: VertexId, ts: Timestamp) -> None:
        """Validate and write one edge deletion (``ts`` already checked)."""
        current = self._current_interval(u, v)
        if current is None or not current.alive_at(ts - 1) or current.added_ts == ts:
            raise InvalidUpdateError(f"edge ({u}, {v}) does not exist before ts {ts}")
        current.deleted_ts = ts
        # add_edge shares one interval between both endpoint records, but
        # records installed by put_record (checkpoint restore, bulk load
        # over the wire) hold a copy each: tombstone the mirror too.
        mirror = self._current_interval(v, u)
        if mirror is not None:
            mirror.deleted_ts = ts
        self._log_deletion((ts, *edge_key(u, v)))

    def set_vertex_label(self, v: VertexId, ts: Timestamp, label: Label) -> None:
        """Append a label change effective from snapshot ``ts`` onward."""
        self._check_ts(ts)
        history = self._ensure_record(v).label_history
        if history and history[-1][0] == ts:
            history[-1] = (ts, label)
        else:
            history.append((ts, label))
        if label is not None:
            self._has_vertex_labels = True
        self._latest_ts = ts

    def ensure_vertex(self, v: VertexId) -> None:
        self._ensure_record(v)

    def _log_deletion(self, entry: Tuple[Timestamp, VertexId, VertexId]) -> None:
        """Writes arrive in time order and append; ``put_record`` may not."""
        log = self._deleted
        if log and entry[0] < log[-1][0]:
            insort(log, entry)
        else:
            log.append(entry)

    def _check_ts(self, ts: Timestamp) -> None:
        if ts < self._latest_ts:
            raise InvalidUpdateError(
                f"updates must arrive in timestamp order "
                f"(got {ts} after {self._latest_ts})"
            )
        if ts < 1:
            raise InvalidUpdateError("timestamps start at 1")

    def _current_interval(self, u: VertexId, v: VertexId) -> Optional[EdgeInterval]:
        rec = self._get_rec(u)
        if rec is None:
            return None
        versions = rec.edges.get(v)
        return versions[-1] if versions else None

    # -- bulk load -------------------------------------------------------

    @classmethod
    def from_adjacency(
        cls,
        graph: AdjacencyGraph,
        ts: Timestamp = 1,
        num_shards: int = 8,
    ):
        """Load a whole static graph as one snapshot at timestamp ``ts``."""
        store = cls(num_shards=num_shards)
        for v in graph.vertices():
            store.ensure_vertex(v)
            label = graph.vertex_label(v)
            if label is not None:
                store.set_vertex_label(v, ts, label)
        for u, v in graph.edges():
            store.add_edge(
                u,
                v,
                ts,
                label=graph.edge_label(u, v),
                direction=graph.edge_direction(u, v),
            )
        store.set_latest_timestamp(max(store.latest_timestamp, ts))
        return store

    # -- read path (timestamped) -------------------------------------------

    @property
    def latest_timestamp(self) -> Timestamp:
        return self._latest_ts

    def set_latest_timestamp(self, ts: Timestamp) -> None:
        self._latest_ts = ts

    def has_vertex(self, v: VertexId) -> bool:
        return self._contains(v)

    def num_vertices(self) -> int:
        return self._len()

    def vertices(self) -> Iterator[VertexId]:
        return self._keys()

    def get_record(self, v: VertexId) -> Optional[VertexRecord]:
        return self._get_rec(v)

    def iter_records(self) -> Iterator[Tuple[VertexId, VertexRecord]]:
        return self._iter_items()

    def put_record(self, v: VertexId, record: VertexRecord) -> None:
        """Install a complete record (checkpoint restore); reindexes it.

        Delta-index facts are derived from the lower endpoint's record
        only, so putting both endpoints of a shared edge notes each fact
        exactly once.  Tombstones enter the deletion log from either
        endpoint: a record may be installed without its mirror.  A label or
        direction the record carries flips the matching capability fact.
        """
        self._put_rec(v, record)
        self._note_record(record)
        note = self._delta.note if self._delta_enabled else None
        for dst, versions in record.edges.items():
            key = edge_key(v, dst)
            for iv in versions:
                if iv.deleted_ts is not None:
                    self._log_deletion((iv.deleted_ts, *key))
                if note is not None and v < dst:
                    note(iv.added_ts, key, True)
                    if iv.deleted_ts is not None:
                        note(iv.deleted_ts, key, False)

    def vertex_label_at(self, v: VertexId, ts: Timestamp) -> Label:
        rec = self._get_rec(v)
        if rec is None:
            return None
        return rec.label_at(ts)

    def edge_alive_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> bool:
        rec = self._get_rec(u)
        if rec is None:
            return False
        versions = rec.edges.get(v)
        if not versions:
            return False
        latest = versions[-1]
        if latest.added_ts <= ts:
            # Versions are disjoint and ordered: when the newest began by
            # ``ts``, every older one had ended by then.
            deleted = latest.deleted_ts
            return deleted is None or ts < deleted
        return any(iv.alive_at(ts) for iv in versions)

    def edge_updated_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> bool:
        """Whether {u, v} was added or deleted exactly at ``ts``.

        With the delta index on (the default) this is one dict probe; the
        fallback scans the edge's interval versions.
        """
        if self._delta_enabled:
            return self._delta.updated_at(edge_key(u, v), ts)
        rec = self._get_rec(u)
        if rec is None:
            return False
        return any(iv.updated_at(ts) for iv in rec.edges.get(v, ()))

    def updated_keys_in(self, ts: Timestamp) -> Dict[EdgeKey, bool]:
        """Edges updated exactly at ``ts``: key -> added (True) / deleted."""
        if self._delta_enabled:
            return self._delta.keys_in(ts)
        out: Dict[EdgeKey, bool] = {}
        for u, rec in self._iter_items():
            for v, versions in rec.edges.items():
                if u < v:
                    for iv in versions:
                        if iv.added_ts == ts:
                            out[(u, v)] = True
                        elif iv.deleted_ts == ts:
                            out[(u, v)] = False
        return out

    def edge_label_at(self, u: VertexId, v: VertexId, ts: Timestamp) -> Label:
        """Label of edge {u, v} at ``ts`` (None if absent or unlabeled)."""
        rec = self._get_rec(u)
        if rec is None:
            return None
        for iv in rec.edges.get(v, ()):
            if iv.alive_at(ts):
                return iv.label
        return None

    def edge_direction_at(
        self, u: VertexId, v: VertexId, ts: Timestamp
    ) -> Optional[str]:
        """Normalized direction of edge {u, v} at ``ts`` (None if absent
        or undirected)."""
        rec = self._get_rec(u)
        if rec is None:
            return None
        for iv in rec.edges.get(v, ()):
            if iv.alive_at(ts):
                return iv.direction
        return None

    def neighbor_states_at(
        self, v: VertexId, ts: Timestamp
    ) -> Dict[VertexId, Tuple[bool, bool]]:
        """:func:`neighbor_states` of ``v``'s record."""
        rec = self._get_rec(v)
        if rec is None:
            return {}
        return neighbor_states(rec.edges, ts)

    # -- maintenance -------------------------------------------------------

    def reclaim(self, horizon: Timestamp) -> ReclaimStats:
        """Drop edge versions deleted at or before ``horizon`` (GC).

        Returns per-store :class:`~repro.store.api.ReclaimStats`;
        ``reclaimed`` counts undirected edge versions.  The delta index
        discards the facts of every dropped interval (so updated-at probes
        keep agreeing with interval scans at any timestamp).  Label history
        is left untouched (it is tiny by comparison).

        Costs the versions it drops, not the store: the deletion log
        yields the edges tombstoned at or before ``horizon`` and only
        their version lists are read.
        """
        stats = ReclaimStats(horizon=horizon)
        log = self._deleted
        due = bisect_left(log, (horizon + 1,))  # a 1-tuple sorts before its ts
        keys = {entry[1:] for entry in log[:due]}
        del log[:due]
        for key in keys:
            # lower endpoint first: its pass counts the versions, and
            # finds them even where both records hold one list
            for u, v in (key, key[::-1]):
                record = self._get_rec(u)
                versions = record.edges.get(v) if record is not None else None
                if versions is None:
                    continue
                dead = [
                    iv
                    for iv in versions
                    if iv.deleted_ts is not None and iv.deleted_ts <= horizon
                ]
                if dead:
                    if self._delta_enabled:
                        # Idempotent: shared intervals reach here from both
                        # endpoints; the second discard is a no-op.
                        for iv in dead:
                            stats.index_pruned += self._delta.discard(
                                iv.added_ts, key
                            )
                            stats.index_pruned += self._delta.discard(
                                iv.deleted_ts, key
                            )
                    if u < v:
                        stats.reclaimed += len(dead)
                        shard = self.shards.shard_of(u)
                        stats.per_shard[shard] = (
                            stats.per_shard.get(shard, 0) + len(dead)
                        )
                    versions[:] = [
                        iv
                        for iv in versions
                        if iv.deleted_ts is None or iv.deleted_ts > horizon
                    ]
                if not versions:
                    del record.edges[v]
        return stats

    def store_stats(self) -> Dict[str, object]:
        """Flat stats dict for run reports and the telemetry bridge."""
        return {
            "kind": self.kind,
            "num_shards": self.shards.num_shards,
            "delta_entries": self._delta.size() if self._delta_enabled else 0,
            "access_total": self.access_stats.total,
            "access_imbalance": self.access_stats.imbalance(),
        }


class MultiVersionStore(BaseRecordStore):
    """Multiversioned graph store over one flat in-process record map."""

    kind = "mv"

    def __init__(self, num_shards: int = 8, delta_index: bool = True) -> None:
        super().__init__(num_shards=num_shards, delta_index=delta_index)
        self._records: Dict[VertexId, VertexRecord] = {}

    def _get_rec(self, v: VertexId) -> Optional[VertexRecord]:
        return self._records.get(v)

    def _ensure_record(self, v: VertexId) -> VertexRecord:
        rec = self._records.get(v)
        if rec is None:
            rec = VertexRecord()
            self._records[v] = rec
        return rec

    def _put_rec(self, v: VertexId, record: VertexRecord) -> None:
        self._records[v] = record

    def _iter_items(self) -> Iterator[Tuple[VertexId, VertexRecord]]:
        return iter(self._records.items())

    def _keys(self) -> Iterator[VertexId]:
        return iter(self._records)

    def _contains(self, v: VertexId) -> bool:
        return v in self._records

    def _len(self) -> int:
        return len(self._records)

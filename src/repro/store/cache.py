"""Snapshot-keyed neighbor-list cache with explicit invalidation hooks.

Every exploration task re-derives the pre/post adjacency of the vertices
it touches from the store's interval lists; an :class:`~repro.store.\
snapshot.ExplorationView` memoizes those derivations only *within* one
task, so a hub vertex hit by many updates in the same window is re-scanned
once per task.  This cache closes that gap at the store layer: entries are
keyed ``(vertex, window ts)`` and hold the fully derived
``neighbor_states_at`` mapping, so repeated reads of one snapshot are dict
lookups.

Reads at a past snapshot are immutable under the store's monotonic write
clock, with exactly two exceptions the invalidation hooks cover:

* **writes at the current timestamp** (bulk loads and window application
  both issue many updates sharing one ``ts``): each ``add_edge`` /
  ``delete_edge`` at ``ts`` drops both endpoints' entries at any cached
  snapshot ``>= ts`` (:meth:`NeighborCache.invalidate_vertex`);
* **garbage collection**: reclaiming versions deleted at or before the
  horizon rewrites what sub-horizon snapshots would read, so
  :meth:`~repro.store.api.GraphStore.reclaim` drops every entry at or
  below it (:meth:`NeighborCache.invalidate_through`).

Window advancement bounds residency: once the streaming loop reports a
window complete, no later task reads snapshots below it, and
:meth:`NeighborCache.invalidate_below` retires those entries.

Hit/miss/eviction counters are plain integers read at snapshot time (they
bridge into the telemetry registry as gauges — counts depend on worker
scheduling and store copies, so they stay out of the deterministic
cross-backend ``counter_totals`` contract).  All mutation happens under
the cache's lock; pickling for the process backend's store shipment drops
the lock and starts the worker copy cold.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.types import Timestamp, VertexId

#: default entry capacity; at ~one dict per cached (vertex, window) pair
#: this bounds the cache well below the store's own record footprint
DEFAULT_CACHE_CAPACITY = 65536

#: cache entry key: (vertex, window timestamp)
_Key = Tuple[VertexId, Timestamp]


class NeighborCache:
    """Bounded, lock-guarded map of (vertex, ts) -> neighbor-states dict."""

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._lock = threading.Lock()
        #: insertion-ordered entries; eviction is FIFO (deterministic)
        self._entries: Dict[_Key, dict] = {}
        #: vertex -> {cached ts -> None}, so per-vertex invalidation needs
        #: no full-table scan (dict, not set: deterministic iteration)
        self._stamps: Dict[VertexId, Dict[Timestamp, None]] = {}

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- read/write --------------------------------------------------------

    def get(self, v: VertexId, ts: Timestamp) -> Optional[dict]:
        """The cached mapping for ``(v, ts)``, or None (counts hit/miss)."""
        with self._lock:
            entry = self._entries.get((v, ts))
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            return entry

    def put(self, v: VertexId, ts: Timestamp, states: dict) -> None:
        """Install a derived mapping; evicts FIFO beyond capacity."""
        if self.capacity <= 0:
            return
        with self._lock:
            if (v, ts) in self._entries:
                return
            while len(self._entries) >= self.capacity:
                old_key = next(iter(self._entries))
                self._drop(old_key)
                self.evictions += 1
            self._entries[(v, ts)] = states
            self._stamps.setdefault(v, {})[ts] = None

    # -- invalidation hooks ------------------------------------------------

    def invalidate_vertex(self, v: VertexId, ts: Timestamp) -> int:
        """Drop ``v``'s entries at snapshots >= ``ts`` (a write at ``ts``)."""
        if v not in self._stamps:
            # Nothing cached for ``v``, the common case for a write: one
            # dict probe (atomic under the GIL) instead of the lock.
            return 0
        with self._lock:
            stamps = self._stamps.get(v)
            if not stamps:
                return 0
            doomed = sorted(t for t in stamps if t >= ts)
            for t in doomed:
                self._drop((v, t))
            self.invalidations += len(doomed)
            return len(doomed)

    def invalidate_through(self, horizon: Timestamp) -> int:
        """Drop entries at windows <= ``horizon`` (GC rewrote their reads).

        An entry at window ``ts`` carries pre-snapshot ``ts - 1`` data, so
        the entry *at* the horizon is also stale once versions deleted at
        the horizon are gone.
        """
        return self._invalidate_older(horizon + 1)

    def invalidate_below(self, ts: Timestamp) -> int:
        """Drop entries at windows < ``ts`` (window advancement retirement).

        Entries at window ``ts`` itself stay: the next window's pre
        snapshot is ``ts``, served by keys >= ``ts``.
        """
        return self._invalidate_older(ts)

    def _invalidate_older(self, cutoff: Timestamp) -> int:
        with self._lock:
            doomed = sorted(key for key in self._entries if key[1] < cutoff)
            for key in doomed:
                self._drop(key)
            self.invalidations += len(doomed)
            return len(doomed)

    def _drop(self, key: _Key) -> None:
        """Remove one entry and its stamp (caller holds the lock)."""
        del self._entries[key]
        v, ts = key
        stamps = self._stamps.get(v)
        if stamps is not None:
            stamps.pop(ts, None)
            if not stamps:
                del self._stamps[v]

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._stamps.clear()
            self.invalidations += dropped
            return dropped

    # -- introspection -----------------------------------------------------

    def stats(self) -> Dict[str, float]:
        """Counter snapshot for run reports and the telemetry bridge."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "cache_capacity": self.capacity,
                "cache_entries": len(self._entries),
                "cache_hits": self.hits,
                "cache_misses": self.misses,
                "cache_evictions": self.evictions,
                "cache_invalidations": self.invalidations,
                "cache_hit_ratio": self.hits / total if total else 0.0,
            }

    # -- pickling (process backend ships the store) ------------------------

    def __getstate__(self) -> dict:
        # Locks do not pickle; entries and counters are worker-local soft
        # state, so shipped copies start cold (paper §5.5: worker caches
        # "can be lost without affecting correctness").
        return {"capacity": self.capacity}

    def __setstate__(self, state: dict) -> None:
        self.__init__(capacity=state["capacity"])

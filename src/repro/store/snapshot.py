"""Point-in-time views over the multiversioned store.

A :class:`SnapshotView` reads the graph exactly as it was at one timestamp.
An :class:`ExplorationView` is the graph the EXPLORE algorithm walks: the
union of the pre-window and post-window snapshots, with helpers to evaluate
edges in either version (paper section 4.3) and to test whether an edge was
updated in the current window (Algorithm 3 line 2).
"""

from __future__ import annotations

from typing import List

from repro.store.api import GraphStore
from repro.types import Label, Timestamp, VertexId


class SnapshotView:
    """Read-only view of the graph as of one snapshot timestamp."""

    __slots__ = ("store", "ts")

    def __init__(self, store: GraphStore, ts: Timestamp) -> None:
        self.store = store
        self.ts = ts

    def neighbors(self, v: VertexId) -> List[VertexId]:
        return self.store.neighbors_at(v, self.ts)

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return self.store.edge_alive_at(u, v, self.ts)

    def degree(self, v: VertexId) -> int:
        return self.store.degree_at(v, self.ts)

    def vertex_label(self, v: VertexId) -> Label:
        return self.store.vertex_label_at(v, self.ts)

    def edge_label(self, u: VertexId, v: VertexId) -> Label:
        return self.store.edge_label_at(u, v, self.ts)

    def has_vertex(self, v: VertexId) -> bool:
        return self.store.has_vertex(v)


class ExplorationView:
    """The union view walked by EXPLORE for a window at timestamp ``ts``.

    Neighbor iteration covers every edge alive immediately before or after
    the window, so exploration reaches matches destroyed by deletions as
    well as matches created by additions.  ``alive_pre``/``alive_post``
    evaluate an edge in the pre-update and post-update snapshots, which is
    what DETECT_CHANGES needs to build the two subgraph versions.

    The view memoizes neighbor lists, edge states, and labels: it models
    the worker's in-memory copy of the graph records fetched for one task
    (the paper's workers "operate on an in-memory graph representation",
    section 5.2).
    """

    __slots__ = ("store", "ts", "_nbr_cache", "_label_cache")

    def __init__(self, store: GraphStore, ts: Timestamp) -> None:
        if ts < 1:
            raise ValueError("window timestamps start at 1")
        self.store = store
        self.ts = ts
        self._nbr_cache: dict = {}
        self._label_cache: dict = {}

    def adjacency(self, v: VertexId) -> dict:
        """Union-view adjacency map of ``v``: nbr -> (alive_pre, alive_post).

        The map is the worker-local copy of the fetched vertex record.
        """
        cached = self._nbr_cache.get(v)
        if cached is None:
            cached = self.store.neighbor_states_at(v, self.ts)
            self._nbr_cache[v] = cached
        return cached

    def neighbors(self, v: VertexId) -> List[VertexId]:
        """Neighbors of ``v`` in the union of pre- and post-window snapshots."""
        return sorted(self.adjacency(v))

    def edge_state(self, u: VertexId, v: VertexId) -> tuple:
        """(alive_pre, alive_post) for edge {u, v}."""
        return self.adjacency(u).get(v, (False, False))

    def update_edge_state(self, u: VertexId, v: VertexId) -> tuple:
        """(alive_pre, alive_post) of the update edge an exploration roots at.

        Two point probes instead of :meth:`adjacency`: a root that fails
        ``filter`` never walks ``u``'s neighbors, so deriving the whole
        adjacency map for this one edge would be wasted.
        """
        store, ts = self.store, self.ts
        return store.edge_alive_at(u, v, ts - 1), store.edge_alive_at(u, v, ts)

    def alive_pre(self, u: VertexId, v: VertexId) -> bool:
        """Whether edge {u, v} exists in the snapshot preceding the window."""
        return self.edge_state(u, v)[0]

    def alive_post(self, u: VertexId, v: VertexId) -> bool:
        """Whether edge {u, v} exists in the snapshot after the window."""
        return self.edge_state(u, v)[1]

    def updated_in_window(self, u: VertexId, v: VertexId) -> bool:
        """Whether edge {u, v} was added or deleted in this window.

        This is the ``TIMESTAMP(v, u) == ts`` test of Algorithm 3 line 2.
        """
        return self.store.edge_updated_at(u, v, self.ts)

    def vertex_label(self, v: VertexId, pre: bool = False) -> Label:
        """Vertex label at the window's post snapshot (or pre with ``pre=True``)."""
        key = (v, pre)
        if key in self._label_cache:
            return self._label_cache[key]
        label = self.store.vertex_label_at(v, self.ts - 1 if pre else self.ts)
        self._label_cache[key] = label
        return label

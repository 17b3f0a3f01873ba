"""A plain in-memory undirected graph.

This is the simple, single-version graph used by the static baselines, the
synthetic generators, and as a loading format for the multiversioned store.
The evolving-graph machinery lives in :mod:`repro.store`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import UnknownVertexError
from repro.types import EdgeKey, Label, VertexId, edge_key, normalize_direction


class AdjacencyGraph:
    """Undirected labeled graph stored as adjacency sets.

    Supports vertex labels and edge labels.  Self-loops and parallel edges
    are rejected, matching the data model of the paper.
    """

    def __init__(self) -> None:
        self._adj: Dict[VertexId, Set[VertexId]] = {}
        self._vertex_labels: Dict[VertexId, Label] = {}
        self._edge_labels: Dict[EdgeKey, Label] = {}
        #: normalized direction per edge key; absent = undirected
        self._edge_directions: Dict[EdgeKey, str] = {}
        self._num_edges = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[VertexId, VertexId]],
        vertex_labels: Optional[Dict[VertexId, Label]] = None,
    ) -> "AdjacencyGraph":
        """Build a graph from an edge iterable plus optional vertex labels."""
        g = cls()
        for u, v in edges:
            g.add_edge(u, v)
        if vertex_labels:
            for v, label in vertex_labels.items():
                g.add_vertex(v)
                g.set_vertex_label(v, label)
        return g

    def copy(self) -> "AdjacencyGraph":
        """Deep copy (adjacency, labels, and directions are all duplicated)."""
        g = AdjacencyGraph()
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._vertex_labels = dict(self._vertex_labels)
        g._edge_labels = dict(self._edge_labels)
        g._edge_directions = dict(self._edge_directions)
        g._num_edges = self._num_edges
        return g

    # -- mutation --------------------------------------------------------

    def add_vertex(self, v: VertexId, label: Label = None) -> None:
        if v not in self._adj:
            self._adj[v] = set()
        if label is not None:
            self._vertex_labels[v] = label

    def add_edge(
        self,
        u: VertexId,
        v: VertexId,
        label: Label = None,
        direction: Optional[str] = None,
    ) -> bool:
        """Add edge {u, v}; return False if it already existed.

        ``direction`` is expressed as u->v ("fwd"), v->u ("rev"), "both",
        or None for undirected.
        """
        if u == v:
            raise ValueError("self-loops are not supported")
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            return False
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        if label is not None:
            self._edge_labels[edge_key(u, v)] = label
        if direction is not None:
            self._edge_directions[edge_key(u, v)] = normalize_direction(
                u, v, direction
            )
        return True

    def remove_edge(self, u: VertexId, v: VertexId) -> bool:
        """Remove edge {u, v}; return False if it did not exist."""
        if u not in self._adj or v not in self._adj[u]:
            return False
        self._adj[u].discard(v)
        self._adj[v].discard(u)
        self._edge_labels.pop(edge_key(u, v), None)
        self._edge_directions.pop(edge_key(u, v), None)
        self._num_edges -= 1
        return True

    def remove_vertex(self, v: VertexId) -> None:
        """Remove ``v`` and every edge incident to it."""
        if v not in self._adj:
            raise UnknownVertexError(v)
        for nbr in list(self._adj[v]):
            self.remove_edge(v, nbr)
        del self._adj[v]
        self._vertex_labels.pop(v, None)

    def set_vertex_label(self, v: VertexId, label: Label) -> None:
        if v not in self._adj:
            raise UnknownVertexError(v)
        self._vertex_labels[v] = label

    def set_edge_label(self, u: VertexId, v: VertexId, label: Label) -> None:
        if not self.has_edge(u, v):
            raise UnknownVertexError(u)
        self._edge_labels[edge_key(u, v)] = label

    # -- queries ---------------------------------------------------------

    def has_vertex(self, v: VertexId) -> bool:
        return v in self._adj

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: VertexId) -> Set[VertexId]:
        if v not in self._adj:
            raise UnknownVertexError(v)
        return self._adj[v]

    def degree(self, v: VertexId) -> int:
        return len(self.neighbors(v))

    def vertex_label(self, v: VertexId) -> Label:
        if v not in self._adj:
            raise UnknownVertexError(v)
        return self._vertex_labels.get(v)

    def edge_label(self, u: VertexId, v: VertexId) -> Label:
        return self._edge_labels.get(edge_key(u, v))

    def edge_direction(self, u: VertexId, v: VertexId) -> Optional[str]:
        """Normalized direction of edge {u, v}; None if undirected/absent."""
        return self._edge_directions.get(edge_key(u, v))

    def has_directed_edge(self, u: VertexId, v: VertexId) -> bool:
        """Whether an arc u -> v exists (undirected edges count both ways)."""
        if not self.has_edge(u, v):
            return False
        direction = self._edge_directions.get(edge_key(u, v))
        if direction is None or direction == "both":
            return True
        wanted = "fwd" if u <= v else "rev"
        return direction == wanted

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._adj)

    def edges(self) -> Iterator[EdgeKey]:
        for u, nbrs in self._adj.items():
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return self._num_edges

    def sorted_edges(self) -> List[EdgeKey]:
        """All edges in the strict total order used for snapshot exploration."""
        return sorted(self.edges())

    # -- interop ---------------------------------------------------------

    def to_networkx(self):
        """Export to a ``networkx.Graph`` (networkx must be installed)."""
        import networkx as nx

        g = nx.Graph()
        for v in self._adj:
            label = self._vertex_labels.get(v)
            if label is not None:
                g.add_node(v, label=label)
            else:
                g.add_node(v)
        for u, v in self.edges():
            label = self._edge_labels.get((u, v))
            if label is not None:
                g.add_edge(u, v, label=label)
            else:
                g.add_edge(u, v)
        return g

    @classmethod
    def from_networkx(cls, nx_graph) -> "AdjacencyGraph":
        """Import from a ``networkx.Graph`` (node/edge 'label' attributes)."""
        g = cls()
        for v, data in nx_graph.nodes(data=True):
            g.add_vertex(int(v), label=data.get("label"))
        for u, v, data in nx_graph.edges(data=True):
            g.add_edge(int(u), int(v), label=data.get("label"))
        return g

    def __contains__(self, v: VertexId) -> bool:
        return v in self._adj

    def __repr__(self) -> str:
        return (
            f"AdjacencyGraph({self.num_vertices()} vertices, "
            f"{self.num_edges()} edges)"
        )

"""Independent brute-force oracles used to validate the library.

These enumerate matches by exhaustive combination search, sharing no code
with the exploration engine, so agreement is meaningful evidence of
correctness.  The module imports nothing from ``repro.core``,
``repro.runtime``, ``repro.store``, ``repro.streaming`` or ``repro.net``:
a graph is a plain dict or an :class:`AdjacencyGraph`, and an algorithm is
only ever asked its own ``filter``/``match`` on a view built here.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.bitset import BitMatrix
from repro.graph.subgraph import SubgraphView
from repro.types import EdgeKey, VertexId

MatchIdentity = Tuple[FrozenSet[VertexId], FrozenSet[EdgeKey]]


def _connected(vertices: Iterable[VertexId], edges: Iterable[EdgeKey]) -> bool:
    vs = list(vertices)
    adj: Dict[VertexId, Set[VertexId]] = {v: set() for v in vs}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {vs[0]}
    stack = [vs[0]]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(vs)


def _view(graph: AdjacencyGraph, combo, edges) -> SubgraphView:
    index = {v: i for i, v in enumerate(combo)}
    matrix = BitMatrix.from_edges(
        len(combo), ((index[u], index[v]) for u, v in edges)
    )
    return SubgraphView(
        list(combo),
        matrix,
        [graph.vertex_label(v) for v in combo],
        edge_label_fn=graph.edge_label,
        direction_fn=graph.edge_direction,
    )


def brute_force_vertex_induced(
    graph: AdjacencyGraph, algorithm
) -> Set[MatchIdentity]:
    """All vertex-induced matches by exhaustive vertex-set enumeration.

    Requires algorithm.filter to be anti-monotone; only the final filter
    value is consulted (a necessary condition of the exploration result).
    """
    out: Set[MatchIdentity] = set()
    vertices = sorted(graph.vertices())
    for k in range(2, algorithm.max_size + 1):
        for combo in itertools.combinations(vertices, k):
            edges = frozenset(
                (u, v)
                for u, v in itertools.combinations(combo, 2)
                if graph.has_edge(u, v)
            )
            if not _connected(combo, edges):
                continue
            view = _view(graph, combo, edges)
            if algorithm.filter(view) and algorithm.match(view):
                out.add((frozenset(combo), edges))
    return out


def brute_force_edge_induced(
    graph: AdjacencyGraph, algorithm
) -> Set[MatchIdentity]:
    """All connected edge-induced matches by edge-subset enumeration."""
    out: Set[MatchIdentity] = set()
    edges = sorted(graph.edges())
    for m in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, m):
            vs = sorted({v for e in combo for v in e})
            if len(vs) > algorithm.max_size:
                continue
            if not _connected(vs, combo):
                continue
            view = _view(graph, tuple(vs), combo)
            if algorithm.filter(view) and algorithm.match(view):
                out.add((frozenset(vs), frozenset(combo)))
    return out


def brute_force_cliques(graph: AdjacencyGraph, k: int) -> Set[FrozenSet[VertexId]]:
    """All cliques with exactly ``k`` vertices."""
    out = set()
    for combo in itertools.combinations(sorted(graph.vertices()), k):
        if all(graph.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
            out.add(frozenset(combo))
    return out


def brute_force_motif_counts(graph: AdjacencyGraph, k: int) -> Dict[object, int]:
    """Vertex-induced connected subgraph counts per unlabeled motif."""
    from repro.graph.canonical import canonical_form

    counts: Dict[object, int] = {}
    for combo in itertools.combinations(sorted(graph.vertices()), k):
        edges = [
            (u, v)
            for u, v in itertools.combinations(combo, 2)
            if graph.has_edge(u, v)
        ]
        if not edges or not _connected(combo, edges):
            continue
        index = {v: i for i, v in enumerate(combo)}
        form = canonical_form(k, [(index[u], index[v]) for u, v in edges])
        counts[form] = counts.get(form, 0) + 1
    return counts


# -- the differential harness's oracle: one update at a time ------------------

_FLIPPED = {"fwd": "rev", "rev": "fwd"}


class PlainGraph:
    """A graph in two plain dicts that applies each update alone.

    ``edges`` maps ``(u, v)``, ``u < v``, to ``(label, direction)`` with
    the direction re-expressed in key order; ``labels`` maps a vertex to
    its label.  An update applies as if it were a window of its own: an
    add of a live edge and a delete or relabel of a missing one change
    nothing (:meth:`apply` says so), a relabel keeps the edge's direction,
    a vertex delete takes every incident edge with it and keeps the
    vertex's label.
    """

    def __init__(self, edges=(), labels=()) -> None:
        self.edges: Dict[EdgeKey, Tuple[object, object]] = {}
        self.labels: Dict[VertexId, object] = dict(labels)
        for u, v, label, direction in edges:
            self._add(u, v, label, direction)

    def _add(self, u, v, label, direction) -> bool:
        key = (u, v) if u < v else (v, u)
        if key in self.edges:
            return False
        if u > v:
            direction = _FLIPPED.get(direction, direction)
        self.edges[key] = (label, direction)
        return True

    def apply(self, update) -> bool:
        """Apply ``update``; False when it changed no edge and set no label."""
        kind, u, v = update.kind.value, update.src, update.dst
        key = None if v is None else ((u, v) if u < v else (v, u))
        if kind == "add_edge":
            return self._add(u, v, update.label, update.direction)
        if kind == "delete_edge":
            return self.edges.pop(key, None) is not None
        if kind == "set_edge_label":
            if key not in self.edges:
                return False
            self.edges[key] = (update.label, self.edges[key][1])
        elif kind in ("set_vertex_label", "add_vertex"):
            if kind == "set_vertex_label" or update.label is not None:
                self.labels[u] = update.label
        elif kind == "delete_vertex":
            incident = [k for k in self.edges if u in k]
            for dead in incident:
                del self.edges[dead]
            return bool(incident)
        else:
            raise ValueError(f"unknown update kind {kind!r}")
        return True

    def vertices(self) -> List[VertexId]:
        """Every vertex with an edge: no match holds an isolated vertex."""
        return sorted({v for key in self.edges for v in key})

    def induced(self, combo) -> FrozenSet[EdgeKey]:
        """The edges among ``combo`` (sorted)."""
        return frozenset(
            pair for pair in itertools.combinations(combo, 2) if pair in self.edges
        )

    def adjacency(self) -> AdjacencyGraph:
        graph = AdjacencyGraph()
        for (u, v), (label, direction) in sorted(self.edges.items()):
            graph.add_edge(u, v, label=label, direction=direction)
        for v in graph.vertices():
            if self.labels.get(v) is not None:
                graph.set_vertex_label(v, self.labels[v])
        return graph


def clique_matches(graph: PlainGraph, sizes: Iterable[int]) -> Set[MatchIdentity]:
    """k-C: every vertex set of a size in ``sizes`` whose pairs are all edges."""
    out: Set[MatchIdentity] = set()
    for k in sizes:
        for combo in itertools.combinations(graph.vertices(), k):
            edges = graph.induced(combo)
            if len(edges) == k * (k - 1) // 2:
                out.add((frozenset(combo), edges))
    return out


def connected_set_matches(graph: PlainGraph, k: int) -> Set[MatchIdentity]:
    """k-MC: every connected vertex set of size ``k``, with its induced edges."""
    out: Set[MatchIdentity] = set()
    for combo in itertools.combinations(graph.vertices(), k):
        edges = graph.induced(combo)
        if edges and _connected(combo, edges):
            out.add((frozenset(combo), edges))
    return out


def path_matches(graph: PlainGraph, sizes: Iterable[int]) -> Set[MatchIdentity]:
    """k-Path: every vertex set of a size in ``sizes`` whose induced edges
    form one simple chain (two ends of degree 1, the rest of degree 2)."""
    out: Set[MatchIdentity] = set()
    for k in sizes:
        for combo in itertools.combinations(graph.vertices(), k):
            edges = graph.induced(combo)
            degrees = sorted(sum(v in e for e in edges) for v in combo)
            if len(edges) == k - 1 and degrees == [1, 1] + [2] * (k - 2):
                out.add((frozenset(combo), edges))
    return out


def edge_subgraph_matches(graph: PlainGraph, max_vertices: int) -> Set[MatchIdentity]:
    """Edge-induced: every connected edge set spanning at most
    ``max_vertices`` vertices, keyed by the vertices it spans."""
    out: Set[MatchIdentity] = set()
    for k in range(2, max_vertices + 1):
        for combo in itertools.combinations(graph.vertices(), k):
            induced = sorted(graph.induced(combo))
            for m in range(k - 1, len(induced) + 1):
                for chosen in itertools.combinations(induced, m):
                    spanned = {v for e in chosen for v in e}
                    if len(spanned) == k and _connected(combo, chosen):
                        out.add((frozenset(combo), frozenset(chosen)))
    return out


def view_matches(graph: PlainGraph, algorithm) -> Set[MatchIdentity]:
    """A label-reading app: its own ``filter``/``match`` on every connected
    vertex set, viewed with the labels and directions ``graph`` holds."""
    return brute_force_vertex_induced(graph.adjacency(), algorithm)

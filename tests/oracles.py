"""Independent brute-force oracles used to validate the library.

These enumerate matches by exhaustive combination search, sharing no code
with the exploration engine, so agreement is meaningful evidence of
correctness.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.core.api import MiningAlgorithm
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
    graph: AdjacencyGraph, algorithm: MiningAlgorithm
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
    graph: AdjacencyGraph, algorithm: MiningAlgorithm
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


def naive_mni_support(
    matches: Iterable[Tuple[Tuple[VertexId, ...], Tuple[int, ...]]],
) -> int:
    """MNI support from (vertices, orbit-ids) pairs: min distinct per orbit."""
    images: Dict[int, Set[VertexId]] = {}
    for vertices, orbits in matches:
        for v, orbit in zip(vertices, orbits):
            images.setdefault(orbit, set()).add(v)
    if not images:
        return 0
    return min(len(s) for s in images.values())


def reference_reclaim(store, horizon):
    """The whole-store ``reclaim`` scan :class:`~repro.store.mvstore.\
    BaseRecordStore` ran before it kept a deletion log, as the oracle.

    ``store`` is an in-process record store (for the ``remote`` and
    ``net`` kinds, the store behind the client).  Every record and every
    neighbour is read.  One change from the code that was deleted:
    records are visited in vertex order, so an edge's lower endpoint comes
    first; the scan counted a version at its lower endpoint only, and
    where both endpoints hold one version list (a restored checkpoint)
    visiting the higher one first emptied the list and the version went
    uncounted.
    """
    from repro.store.api import ReclaimStats

    stats = ReclaimStats(horizon=horizon)
    for u, record in sorted(store.iter_records()):
        empty_neighbors = []
        for v, versions in record.edges.items():
            dead = [
                iv
                for iv in versions
                if iv.deleted_ts is not None and iv.deleted_ts <= horizon
            ]
            if dead:
                key = (u, v) if u < v else (v, u)
                if store._delta_enabled:
                    for iv in dead:
                        stats.index_pruned += store._delta.discard(iv.added_ts, key)
                        stats.index_pruned += store._delta.discard(iv.deleted_ts, key)
                if u < v:
                    stats.reclaimed += len(dead)
                    shard = store.shards.shard_of(u)
                    stats.per_shard[shard] = stats.per_shard.get(shard, 0) + len(dead)
                versions[:] = [
                    iv
                    for iv in versions
                    if iv.deleted_ts is None or iv.deleted_ts > horizon
                ]
            if not versions:
                empty_neighbors.append(v)
        for v in empty_neighbors:
            del record.edges[v]
    return stats

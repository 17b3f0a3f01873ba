"""Delta-BigJoin [10] baseline: evolving, distributed subgraph queries.

BigJoin expresses a fixed pattern as a conjunction of edge relations
(``q := e(a,b), e(b,c), ...``) and evaluates it with the GenericJoin
worst-case-optimal algorithm: bind one pattern vertex at a time by
intersecting the adjacency of already-bound neighbors.  Delta-BigJoin
supports evolving graphs by decomposing each query into one *delta query*
per pattern edge: for an update batch, delta query i binds pattern edge i
to the updated edges and joins the remaining relations against the
appropriate graph versions (paper section 6.3).

Faithfully reproduced limitations:

* **fixed patterns only** — mining all 4-motifs needs 6 separate queries;
  5-GKS-3 needs 98 (the paper's counts); each query is a separate run;
* **no label push-down** — labeled constraints (e.g. 4-CL distinctness)
  are applied in a post-processing step after all structural matches have
  been materialized;
* **data shuffle** — in the Timely dataflow implementation every prefix
  extension crosses the network; we count those bytes
  (``bytes_shuffled``), which is the paper's 280 GB / 15 TB observation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.pattern import Pattern
from repro.types import (
    EdgeKey,
    MatchDelta,
    MatchStatus,
    MatchSubgraph,
    Timestamp,
    VertexId,
    edge_key,
)

#: bytes per shuffled tuple element (64-bit vertex ids, as in BigJoin).
BYTES_PER_FIELD = 8


@dataclass
class BigJoinStats:
    """Cost accounting across a run."""

    prefixes_extended: int = 0
    bytes_shuffled: int = 0
    matches_found: int = 0
    wall_seconds: float = 0.0


class DeltaBigJoin:
    """One fixed-pattern query with incremental (delta query) evaluation.

    ``post_filter`` is the optional second-step predicate applied to
    materialized matches (label distinctness for CL, label coverage and
    minimality for GKS) — BigJoin cannot push these into the join.
    """

    def __init__(
        self,
        pattern: Pattern,
        post_filter: Optional[Callable[[MatchSubgraph], bool]] = None,
    ) -> None:
        self.pattern = pattern
        self.post_filter = post_filter
        self.constraints = pattern.symmetry_breaking_order()
        self.stats = BigJoinStats()
        self._order_cache: Dict[Tuple[int, int], List[int]] = {}

    # -- GenericJoin core --------------------------------------------------

    def _extension_order(self, bound_a: int, bound_b: int) -> List[int]:
        """Connected slot order starting from a bound pattern edge."""
        key = (bound_a, bound_b)
        cached = self._order_cache.get(key)
        if cached is not None:
            return cached
        p = self.pattern
        order = [bound_a, bound_b]
        remaining = set(range(p.num_vertices)) - set(order)
        while remaining:
            frontier = [
                s for s in remaining if any(n in order for n in p.adjacency(s))
            ]
            nxt = max(frontier, key=lambda s: (p.degree(s), -s))
            order.append(nxt)
            remaining.remove(nxt)
        self._order_cache[key] = order
        return order

    def _generic_join(
        self,
        graph: AdjacencyGraph,
        order: List[int],
        assignment: Dict[int, VertexId],
        used: Set[VertexId],
        step: int,
        out: List[Dict[int, VertexId]],
    ) -> None:
        if step == len(order):
            out.append(dict(assignment))
            return
        p = self.pattern
        slot = order[step]
        anchors = [n for n in p.adjacency(slot) if n in assignment]
        pools = [graph.neighbors(assignment[a]) for a in anchors]
        base = min(pools, key=len)
        for v in sorted(base):
            if v in used:
                continue
            if any(v not in pool for pool in pools if pool is not base):
                continue
            if not self._constraints_ok(assignment, slot, v):
                continue
            # Extending a prefix shuffles it to the worker owning v.
            self.stats.prefixes_extended += 1
            self.stats.bytes_shuffled += (step + 1) * BYTES_PER_FIELD
            assignment[slot] = v
            used.add(v)
            self._generic_join(graph, order, assignment, used, step + 1, out)
            del assignment[slot]
            used.discard(v)

    def _constraints_ok(
        self, assignment: Dict[int, VertexId], slot: int, v: VertexId
    ) -> bool:
        for a, b in self.constraints:
            va = v if a == slot else assignment.get(a)
            vb = v if b == slot else assignment.get(b)
            if va is not None and vb is not None and not va < vb:
                return False
        return True

    # -- delta query per update --------------------------------------------

    def _matches_containing(
        self, graph: AdjacencyGraph, e: EdgeKey
    ) -> List[Dict[int, VertexId]]:
        """All pattern matches in ``graph`` containing edge ``e``.

        One delta query per pattern edge: bind that edge to the update (in
        both orientations), then GenericJoin the remaining relations.  A
        match whose assignment also covers ``e`` at an earlier pattern edge
        is skipped, mirroring the version trick BigJoin uses to avoid double
        counting across delta queries.
        """
        results: List[Dict[int, VertexId]] = []
        u, v = e
        if not (graph.has_edge(u, v)):
            return results
        for i, (a, b) in enumerate(self.pattern.edges):
            for va, vb in ((u, v), (v, u)):
                assignment = {a: va, b: vb}
                if va == vb:
                    continue
                if not self._constraints_ok_full(assignment):
                    continue
                self.stats.prefixes_extended += 1
                self.stats.bytes_shuffled += 2 * BYTES_PER_FIELD
                order = self._extension_order(a, b)
                found: List[Dict[int, VertexId]] = []
                self._generic_join(
                    graph, order, assignment, {va, vb}, 2, found
                )
                for asg in found:
                    if self._covers_earlier(asg, e, i):
                        continue
                    if self._relations_hold(graph, asg):
                        results.append(asg)
        return results

    def _constraints_ok_full(self, assignment: Dict[int, VertexId]) -> bool:
        for a, b in self.constraints:
            if a in assignment and b in assignment:
                if not assignment[a] < assignment[b]:
                    return False
        return True

    def _covers_earlier(
        self, assignment: Dict[int, VertexId], e: EdgeKey, index: int
    ) -> bool:
        for j in range(index):
            a, b = self.pattern.edges[j]
            if edge_key(assignment[a], assignment[b]) == e:
                return True
        return False

    def _relations_hold(
        self, graph: AdjacencyGraph, assignment: Dict[int, VertexId]
    ) -> bool:
        return all(
            graph.has_edge(assignment[a], assignment[b])
            for a, b in self.pattern.edges
        )

    # -- public API ------------------------------------------------------

    def process_stream(
        self,
        updates: Sequence[Tuple[EdgeKey, bool]],
        initial: Optional[AdjacencyGraph] = None,
    ) -> List[MatchDelta]:
        """Apply (edge, added) updates one at a time, emitting match deltas."""
        graph = initial.copy() if initial is not None else AdjacencyGraph()
        deltas: List[MatchDelta] = []
        start = time.perf_counter()
        for ts, (e, added) in enumerate(updates, start=1):
            u, v = e
            if added:
                if not graph.add_edge(u, v):
                    continue
                for asg in self._matches_containing(graph, e):
                    deltas.append(self._delta(ts, MatchStatus.NEW, graph, asg))
            else:
                if not graph.has_edge(u, v):
                    continue
                for asg in self._matches_containing(graph, e):
                    deltas.append(self._delta(ts, MatchStatus.REM, graph, asg))
                graph.remove_edge(u, v)
        self.stats.wall_seconds += time.perf_counter() - start
        return deltas

    def _delta(
        self,
        ts: Timestamp,
        status: MatchStatus,
        graph: AdjacencyGraph,
        assignment: Dict[int, VertexId],
    ) -> MatchDelta:
        verts = tuple(assignment[s] for s in range(self.pattern.num_vertices))
        edges = frozenset(
            edge_key(assignment[a], assignment[b]) for a, b in self.pattern.edges
        )
        match = MatchSubgraph(
            vertices=verts,
            edges=edges,
            vertex_labels=tuple(graph.vertex_label(v) for v in verts),
        )
        self.stats.matches_found += 1
        return MatchDelta(ts, status, match)

    def post_process(self, deltas: List[MatchDelta]) -> List[MatchDelta]:
        """Second-step filtering over materialized matches (e.g. labels)."""
        if self.post_filter is None:
            return deltas
        return [d for d in deltas if self.post_filter(d.subgraph)]

    # -- batched delta queries ---------------------------------------------

    def process_batch(
        self,
        graph: AdjacencyGraph,
        batch: Sequence[Tuple[EdgeKey, bool]],
        ts: Timestamp = 1,
    ) -> List[MatchDelta]:
        """Apply a whole update batch with true delta-query semantics.

        This is the mode Delta-BigJoin actually runs in: the batch ``dE``
        is applied atomically, and for pattern edges ``e_1 .. e_m`` delta
        query ``i`` binds ``e_i`` to the batch's updates while joining
        relations ``e_1 .. e_{i-1}`` against the *new* graph version and
        ``e_{i+1} .. e_m`` against the *old* one.  The alternating
        version trick guarantees each changed match is produced by exactly
        one delta query, which we realize equivalently by ordering the
        batch's edges and attributing every match to its lowest contained
        update (the same argument as Tesseract's §4.4.3).

        ``graph`` is mutated to the post-batch state.  Returns NEW deltas
        for matches present only after the batch and REM deltas for
        matches present only before it.
        """
        adds = [e for e, added in batch if added and not graph.has_edge(*e)]
        dels = [e for e, added in batch if not added and graph.has_edge(*e)]
        old = graph.copy()
        for u, v in adds:
            graph.add_edge(u, v)
        for u, v in dels:
            graph.remove_edge(u, v)
        changed = sorted(set(adds) | set(dels))
        changed_set = set(changed)
        deltas: List[MatchDelta] = []

        def lowest_update_in(asg: Dict[int, VertexId]) -> EdgeKey:
            members = [
                edge_key(asg[a], asg[b])
                for a, b in self.pattern.edges
                if edge_key(asg[a], asg[b]) in changed_set
            ]
            return min(members) if members else None

        for e in changed:
            # NEW side: matches in the new graph containing e
            for asg in self._matches_containing(graph, e):
                if lowest_update_in(asg) == e:
                    deltas.append(self._delta(ts, MatchStatus.NEW, graph, asg))
            # REM side: matches in the old graph containing e
            for asg in self._matches_containing(old, e):
                if lowest_update_in(asg) == e:
                    deltas.append(self._delta(ts, MatchStatus.REM, old, asg))
        return deltas

"""STesseract: the static-optimized engine variant (paper section 6.5.3).

To measure the overhead of supporting dynamic updates, the paper builds
STesseract, "an optimized version of Tesseract designed to mine static
graphs": it executes EXPLORE for each edge in the graph, performs no
differential processing, uses no snapshots, and keeps only the update
canonicality part of CAN_EXPAND.

Concretely, this engine reads a plain :class:`AdjacencyGraph` directly (no
multiversioned store, no pre/post evaluation, single adjacency bitset) and
replaces the same-snapshot timestamp test with a pure edge comparison: an
expansion may not traverse an edge lower than the start edge, which makes
each match discoverable only from its minimal edge.  The emitted matches are
identical to ``TesseractEngine.run_static``; only the machinery differs.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.api import InducedMode, MiningAlgorithm
from repro.core.metrics import Metrics
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.bitset import BitMatrix
from repro.graph.subgraph import SubgraphView
from repro.types import (
    EdgeKey,
    MatchDelta,
    MatchStatus,
    VertexId,
    edge_key,
)


class STesseractEngine:
    """Static-only miner: one EXPLORE per edge, no differential processing."""

    def __init__(
        self,
        algorithm: MiningAlgorithm,
        metrics: Optional[Metrics] = None,
    ) -> None:
        if algorithm.induced is not InducedMode.VERTEX:
            raise NotImplementedError(
                "STesseract supports vertex-induced algorithms only"
            )
        self.algorithm = algorithm
        self.metrics = metrics if metrics is not None else Metrics()
        self._graph: AdjacencyGraph = None  # type: ignore[assignment]
        self._verts: List[VertexId] = []
        self._out: List[MatchDelta] = []
        # The one view of the current root's exploration, built over the
        # live ``_verts`` and matrix and handed to every node's filter.
        self._s: SubgraphView = None  # type: ignore[assignment]

    def run(self, graph: AdjacencyGraph) -> List[MatchDelta]:
        """Enumerate all matches of the static graph, once each."""
        self._graph = graph
        self._out = []
        for u, v in graph.sorted_edges():
            self._explore_root(u, v)
        return self._out

    # -- internals -------------------------------------------------------

    def _explore_root(self, u: VertexId, v: VertexId) -> None:
        graph = self._graph
        algorithm = self.algorithm
        self._verts = [u, v]
        matrix = BitMatrix([0, 1])
        self._s = SubgraphView(
            self._verts,
            matrix,
            edge_label_fn=graph.edge_label if algorithm.uses_edge_labels else None,
            direction_fn=graph.edge_direction if algorithm.uses_directions else None,
            label_fn=graph.vertex_label,
        )
        if self._detect() and 2 < algorithm.max_size:
            self._explore(matrix, (u, v))

    def _explore(self, matrix: BitMatrix, start_key: EdgeKey) -> None:
        metrics = self.metrics
        verts = self._verts
        algorithm = self.algorithm
        # Same frontier rule as ``Explorer``: ``max_size`` is a leaf.
        descend = len(verts) + 1 < algorithm.max_size
        graph = self._graph
        members = set(verts)
        candidates = sorted(
            {n for w in verts for n in graph.neighbors(w)} - members
        )
        # Like ``Explorer``'s one-live-version loop: each child is evaluated
        # in this frame (the root goes through :meth:`_detect`).
        s = self._s
        keeps = algorithm.filter
        # ``Explorer``'s required-row veto, counted as a rejecting filter call
        need = algorithm.required_row(len(verts))
        expansions = 0
        for v in candidates:
            bits = self._can_expand(v)
            if bits is None:
                continue
            expansions += 1
            if bits & need != need:
                metrics.filter_calls += 1
                continue
            verts.append(v)
            matrix.append_row(bits)
            s.rebind()
            metrics.filter_calls += 1
            keep = keeps(s)
            if keep:
                if s.is_connected():
                    metrics.match_calls += 1
                    matched = algorithm.match(s)
                    if matched:
                        self._emit(s)
                if descend:
                    self._explore(matrix, start_key)
            matrix.pop_row()
            verts.pop()
        metrics.explore_calls += 1
        metrics.can_expand_calls += len(candidates)
        metrics.expansions += expansions

    def _can_expand(self, v: VertexId) -> Optional[int]:
        """Update canonicality with a pure edge-order root rule.

        Rejects expansions traversing an edge lower than the start edge
        (each match is rooted at its minimal edge) and applies rule 2 of
        update canonicality, i.e. lines 3-8 of Algorithm 3.
        """
        verts = self._verts
        graph = self._graph
        start_key = (verts[0], verts[1]) if verts[0] < verts[1] else (verts[1], verts[0])
        bits = 0
        nbrs = graph.neighbors(v)
        for i, u in enumerate(verts):
            if u in nbrs:
                if edge_key(u, v) < start_key:
                    return None
                bits |= 1 << i
        found = bool(bits & 0b11)
        for idx in range(2, len(verts)):
            u = verts[idx]
            if not found and (bits >> idx) & 1:
                found = True
            elif found and u > v:
                return None
        return bits

    def _detect(self) -> bool:
        """Filter/connectivity/match on the single (static) subgraph version."""
        algorithm = self.algorithm
        metrics = self.metrics
        s = self._s
        s.rebind()
        metrics.filter_calls += 1
        keep = algorithm.filter(s)
        if not keep:
            return False
        if s.is_connected():
            metrics.match_calls += 1
            matched = algorithm.match(s)
            if matched:
                self._emit(s)
        return True

    def _emit(self, s: SubgraphView) -> None:
        self.metrics.emits += 1
        self._out.append(MatchDelta(1, MatchStatus.NEW, s.freeze()))

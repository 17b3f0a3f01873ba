"""The subgraph view handed to user ``filter`` and ``match`` functions.

A :class:`SubgraphView` pairs the list of graph vertex ids in exploration
order with a :class:`~repro.graph.bitset.BitMatrix` describing the edges
among them, plus the vertex labels at the relevant graph version.  During
differential processing the engine builds two views over the same vertex
list — one with the pre-update edges and one with the post-update edges
(paper section 4.3).

Inside the engine a view is a window onto the explorer's live DFS state:
one view per graph version is built per engine, for its whole life, over the
vertex list and bit matrix the explorer mutates.  Every update re-roots it
(:meth:`SubgraphView.reroot`) and every node of every search tree is handed
the same object (:meth:`SubgraphView.rebind` drops what the previous node
derived).  Its vertex labels are resolved from the store only when first
asked for: an algorithm that never looks at a label never costs a label
read, and on a store where no vertex ever had a label the engine gives the
view no resolver at all, so every label reads ``None`` for free.  Call
:meth:`SubgraphView.freeze` to keep a subgraph beyond the call it was
handed to.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.graph.bitset import BitMatrix
from repro.types import (
    EdgeKey,
    Label,
    MatchSubgraph,
    VertexId,
    edge_key,
    slot_edges,
)

#: the label tuple of an unlabelled subgraph, by vertex count
_NO_LABELS = tuple((None,) * n for n in range(16))


class SubgraphView:
    """Read-only view of a candidate subgraph.

    The view exposes exactly the helpers used by the paper's example
    algorithms (Algorithm 1): ``len()``, ``num_edges()``, per-label counting,
    connectivity, and minimality checks — all backed by bitwise operations
    on the adjacency bitset (paper section 5.6).
    """

    __slots__ = (
        "_vertices",
        "_matrix",
        "_labels",
        "_label_fn",
        "_slot_of",
        "_edge_label_fn",
        "_direction_fn",
    )

    def __init__(
        self,
        vertices: List[VertexId],
        matrix: BitMatrix,
        labels: Optional[List[Label]] = None,
        edge_label_fn=None,
        direction_fn=None,
        label_fn=None,
    ) -> None:
        if len(matrix) != len(vertices):
            raise ValueError("matrix size must match vertex count")
        self._vertices = vertices
        self._matrix = matrix
        self._labels = labels
        #: optional resolver ``v -> label`` at the subgraph's graph version,
        #: consulted on the first label read when ``labels`` was not given
        self._label_fn = label_fn
        self._slot_of: Optional[Dict[VertexId, int]] = None
        #: optional resolver ``(u, v) -> label`` for edge labels at the
        #: subgraph's graph version; None when the algorithm does not use
        #: edge labels (resolution is lazy to keep the common path cheap)
        self._edge_label_fn = edge_label_fn
        #: optional resolver ``(u, v) -> normalized direction``
        self._direction_fn = direction_fn

    def reroot(self, edge: bool) -> None:
        """Start over at a two-vertex root, adjacent iff ``edge``.

        The engine calls this once per update and graph version, having put
        the update's endpoints in the shared vertex list: the view's own
        matrix goes back to the root (:meth:`BitMatrix.reset_root`) and
        everything derived for the previous update is dropped.
        """
        self._matrix.reset_root(edge)
        self.rebind()

    def rebind(self) -> None:
        """Forget what was derived from the vertex list, which has changed.

        The engine calls this before handing the view to ``filter`` at each
        node; labels given explicitly to the constructor are kept.
        """
        self._slot_of = None
        if self._label_fn is not None:
            self._labels = None

    def resolve_with(self, label_fn, edge_label_fn, direction_fn) -> None:
        """Replace the three resolvers, as the constructor takes them.

        The engine calls this when the store's capability facts change:
        a label-free store gets ``label_fn=None`` (every vertex reads
        ``None``, at no store cost) in place of the store read.  Labels
        resolved or given before are dropped.
        """
        self._label_fn = label_fn
        self._edge_label_fn = edge_label_fn
        self._direction_fn = direction_fn
        self._labels = None

    # -- size / structure --------------------------------------------------

    def __len__(self) -> int:
        return len(self._vertices)

    def num_vertices(self) -> int:
        return len(self._vertices)

    def num_edges(self) -> int:
        return self._matrix.num_edges()

    def vertices(self) -> Tuple[VertexId, ...]:
        return tuple(self._vertices)

    def __iter__(self) -> Iterator[VertexId]:
        return iter(self._vertices)

    def __contains__(self, v: VertexId) -> bool:
        return v in self._vertices

    def _slot(self, v: VertexId) -> int:
        if self._slot_of is None:
            self._slot_of = {u: i for i, u in enumerate(self._vertices)}
        return self._slot_of[v]

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        return self._matrix.has_edge(self._slot(u), self._slot(v))

    def degree(self, v: VertexId) -> int:
        """Degree of ``v`` counting only edges inside the subgraph."""
        return self._matrix.degree(self._slot(v))

    def edges(self) -> Iterator[EdgeKey]:
        for i, j in self._matrix.edges():
            yield edge_key(self._vertices[i], self._vertices[j])

    def edge_set(self) -> FrozenSet[EdgeKey]:
        return frozenset(self.edges())

    # -- labels --------------------------------------------------------------

    def _resolved_labels(self) -> List[Label]:
        """One label per vertex, whatever the source: the list given to the
        constructor, the resolver (asked once per node), or — with neither —
        ``None`` for every vertex."""
        labels = self._labels
        if labels is None:
            if self._label_fn is None:
                return [None] * len(self._vertices)
            labels = self._labels = [self._label_fn(v) for v in self._vertices]
        return labels

    def label_of(self, v: VertexId) -> Label:
        return self._resolved_labels()[self._slot(v)]

    def labels(self) -> Tuple[Label, ...]:
        if self._labels is None and self._label_fn is None:
            n = len(self._vertices)
            # one shared tuple per size: every match of a label-free run
            # holds it instead of a copy
            return _NO_LABELS[n] if n < len(_NO_LABELS) else (None,) * n
        return tuple(self._resolved_labels())

    def count_label(self, label: Label) -> int:
        """Number of vertices carrying ``label`` (Algorithm 1's num_<color>)."""
        return self._resolved_labels().count(label)

    # -- edge labels -------------------------------------------------------

    def edge_label(self, u: VertexId, v: VertexId) -> Label:
        """Label of edge {u, v} in this subgraph's graph version.

        Requires the algorithm to set ``uses_edge_labels = True`` so the
        engine attaches a resolver; raises otherwise.
        """
        if self._edge_label_fn is None:
            raise ValueError(
                "edge labels are not loaded; set uses_edge_labels = True "
                "on the algorithm"
            )
        if not self.has_edge(u, v):
            return None
        return self._edge_label_fn(u, v)

    def count_edge_label(self, label: Label) -> int:
        """Number of subgraph edges carrying ``label``."""
        return sum(1 for u, v in self.edges() if self.edge_label(u, v) == label)

    # -- directions --------------------------------------------------------

    def has_directed_edge(self, u: VertexId, v: VertexId) -> bool:
        """Whether the arc u -> v is in the subgraph.

        Undirected edges count in both directions.  Requires the algorithm
        to set ``uses_directions = True``.
        """
        if self._direction_fn is None:
            raise ValueError(
                "directions are not loaded; set uses_directions = True "
                "on the algorithm"
            )
        if not self.has_edge(u, v):
            return False
        direction = self._direction_fn(u, v)
        if direction is None or direction == "both":
            return True
        wanted = "fwd" if u <= v else "rev"
        return direction == wanted

    def out_degree(self, v: VertexId) -> int:
        """Number of subgraph arcs leaving ``v`` (undirected count too)."""
        count = 0
        for u in self._vertices:
            if u != v and self.has_edge(v, u) and self.has_directed_edge(v, u):
                count += 1
        return count

    def in_degree(self, v: VertexId) -> int:
        """Number of subgraph arcs entering ``v`` (undirected count too)."""
        count = 0
        for u in self._vertices:
            if u != v and self.has_edge(u, v) and self.has_directed_edge(u, v):
                count += 1
        return count

    # -- connectivity ----------------------------------------------------

    def is_connected(self) -> bool:
        return self._matrix.is_connected()

    def is_connected_without(self, v: VertexId) -> bool:
        """Connectivity of the subgraph with ``v`` removed (minimality checks)."""
        return self._matrix.is_connected_without(self._slot(v))

    # -- conversion --------------------------------------------------------

    def freeze(self) -> MatchSubgraph:
        """Materialize an immutable :class:`MatchSubgraph` for emission.

        The match's edges are the stored triangle itself: each row is
        shifted to its offset in the packed mask
        (:func:`~repro.types.slot_mask`), and the edge keys are derived
        from it only when read.  The bits are walked here only when edge
        labels are loaded, each edge keyed and labelled where it is found.
        """
        verts = self._vertices
        mask = offset = 0
        for i, bits in enumerate(self._matrix.lower_rows()):
            mask |= bits << offset
            offset += i
        edge_label_fn = self._edge_label_fn
        if edge_label_fn is None:
            return MatchSubgraph.from_mask(tuple(verts), mask, self.labels())
        labelled = []
        for j, i in slot_edges(mask):
            u, v = verts[j], verts[i]
            key = (u, v) if u <= v else (v, u)
            labelled.append((key, edge_label_fn(*key)))
        labelled.sort()
        return MatchSubgraph.from_mask(
            tuple(verts), mask, self.labels(), tuple(labelled)
        )

    def __repr__(self) -> str:
        return f"SubgraphView({self._vertices}, {self.num_edges()} edges)"

"""Core value types shared across the library.

The types here mirror the vocabulary of the paper:

* a *graph update* (:class:`Update`) adds or deletes an edge or a vertex, or
  changes a label (section 4.1);
* the engine emits *match deltas* (:class:`MatchDelta`), 3-tuples of
  ``(timestamp, status, subgraph)`` where status is ``NEW`` or ``REM``
  (section 3.1);
* an emitted subgraph is identified by its vertices, its edges, and its
  labels (:class:`MatchSubgraph`).

Vertex ids are plain integers.  Timestamps are integers assigned by the
ingress node; all updates in a window share one timestamp (section 4.4.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

VertexId = int
Timestamp = int
Label = Optional[str]

#: Edge direction relative to the normalized (min, max) endpoint order:
#: None = undirected, "fwd" = min->max, "rev" = max->min, "both" = both ways.
Direction = Optional[str]

VALID_DIRECTIONS = (None, "fwd", "rev", "both")


def normalize_direction(u: VertexId, v: VertexId, direction: Direction) -> Direction:
    """Re-express a direction given as u->v in normalized (min, max) terms."""
    if direction is None or direction == "both":
        return direction
    if direction not in ("fwd", "rev"):
        raise ValueError(f"invalid direction {direction!r}")
    return direction if u <= v else ("rev" if direction == "fwd" else "fwd")

#: An undirected edge in normalized order (smaller endpoint first).
EdgeKey = Tuple[VertexId, VertexId]


def edge_key(u: VertexId, v: VertexId) -> EdgeKey:
    """Return the normalized (sorted) key for the undirected edge ``{u, v}``."""
    return (u, v) if u <= v else (v, u)


class UpdateKind(enum.Enum):
    """The kinds of graph updates Tesseract accepts (paper section 4.1)."""

    ADD_EDGE = "add_edge"
    DELETE_EDGE = "delete_edge"
    ADD_VERTEX = "add_vertex"
    DELETE_VERTEX = "delete_vertex"
    SET_VERTEX_LABEL = "set_vertex_label"
    SET_EDGE_LABEL = "set_edge_label"


@dataclass(frozen=True)
class Update:
    """A single graph update as received from a data source.

    Vertex updates carry ``src`` only.  Edge updates carry ``src`` and
    ``dst``.  Label updates carry the new label in ``label``.  The ingress
    node translates vertex and label updates into edge additions/deletions
    before they reach workers, as described in section 4.1.
    """

    kind: UpdateKind
    src: VertexId
    dst: Optional[VertexId] = None
    label: Label = None
    #: direction of an added edge, expressed as src->dst ("fwd"), dst->src
    #: ("rev"), "both", or None for undirected
    direction: Direction = None

    def __post_init__(self) -> None:
        edge_kinds = (
            UpdateKind.ADD_EDGE,
            UpdateKind.DELETE_EDGE,
            UpdateKind.SET_EDGE_LABEL,
        )
        if self.kind in edge_kinds:
            if self.dst is None:
                raise ValueError(f"{self.kind.value} update requires dst")
            if self.src == self.dst:
                raise ValueError("self-loop edges are not supported")

    @staticmethod
    def add_edge(
        u: VertexId, v: VertexId, label: Label = None, direction: Direction = None
    ) -> "Update":
        return Update(UpdateKind.ADD_EDGE, u, v, label, direction=direction)

    @staticmethod
    def delete_edge(u: VertexId, v: VertexId) -> "Update":
        return Update(UpdateKind.DELETE_EDGE, u, v)

    @staticmethod
    def add_vertex(v: VertexId, label: Label = None) -> "Update":
        return Update(UpdateKind.ADD_VERTEX, v, label=label)

    @staticmethod
    def delete_vertex(v: VertexId) -> "Update":
        return Update(UpdateKind.DELETE_VERTEX, v)

    @staticmethod
    def set_vertex_label(v: VertexId, label: Label) -> "Update":
        return Update(UpdateKind.SET_VERTEX_LABEL, v, label=label)

    @staticmethod
    def set_edge_label(u: VertexId, v: VertexId, label: Label) -> "Update":
        return Update(UpdateKind.SET_EDGE_LABEL, u, v, label)


@dataclass(frozen=True)
class EdgeUpdate:
    """An edge-level update after ingress translation, ready for exploration.

    ``added`` is True for an edge addition and False for a deletion.  The
    normalized edge is ``(u, v)`` with ``u < v`` (update canonicality rule 1
    requires the update edge endpoints in increasing order).
    """

    u: VertexId
    v: VertexId
    added: bool
    label: Label = None
    #: normalized direction (relative to u < v); None for undirected
    direction: Direction = None

    def __post_init__(self) -> None:
        if self.u >= self.v:
            raise ValueError("EdgeUpdate endpoints must satisfy u < v")
        if self.direction not in VALID_DIRECTIONS:
            raise ValueError(f"invalid direction {self.direction!r}")

    @property
    def key(self) -> EdgeKey:
        return (self.u, self.v)


class MatchStatus(enum.Enum):
    """Differential match status (paper section 3.1)."""

    NEW = "NEW"
    REM = "REM"


@dataclass(frozen=True, slots=True)
class MatchSubgraph:
    """An immutable subgraph emitted as part of a match delta.

    ``vertices`` preserves the (canonical) exploration order.  ``edges`` is a
    frozenset of normalized edge keys.  ``vertex_labels`` maps each vertex to
    its label at the relevant snapshot; unlabeled graphs map to ``None``.
    """

    vertices: Tuple[VertexId, ...]
    edges: FrozenSet[EdgeKey]
    vertex_labels: Tuple[Label, ...] = ()
    #: ((u, v), label) pairs, sorted by edge; empty unless the algorithm
    #: declared ``uses_edge_labels`` (edge labels are loaded lazily)
    edge_labels: Tuple[Tuple[EdgeKey, Label], ...] = ()

    def __post_init__(self) -> None:
        if self.vertex_labels and len(self.vertex_labels) != len(self.vertices):
            raise ValueError("vertex_labels must align with vertices")
        if self.edge_labels and len(self.edge_labels) != len(self.edges):
            raise ValueError("edge_labels must align with edges")

    @property
    def identity(self) -> Tuple[FrozenSet[VertexId], FrozenSet[EdgeKey]]:
        """Hashable identity of the match, independent of exploration order."""
        return (frozenset(self.vertices), self.edges)

    def num_vertices(self) -> int:
        return len(self.vertices)

    def num_edges(self) -> int:
        return len(self.edges)

    def label_of(self, v: VertexId) -> Label:
        if not self.vertex_labels:
            return None
        return self.vertex_labels[self.vertices.index(v)]

    def labels(self) -> Dict[VertexId, Label]:
        if not self.vertex_labels:
            return {v: None for v in self.vertices}
        return dict(zip(self.vertices, self.vertex_labels))

    def edge_label_of(self, u: VertexId, v: VertexId) -> Label:
        """Label of edge {u, v} in this match (None if unlabeled/absent)."""
        key = edge_key(u, v)
        for pair, label in self.edge_labels:
            if pair == key:
                return label
        return None


@dataclass(frozen=True, slots=True)
class MatchDelta:
    """The 3-tuple streamed out by Tesseract: (timestamp, status, subgraph)."""

    timestamp: Timestamp
    status: MatchStatus
    subgraph: MatchSubgraph

    def is_new(self) -> bool:
        return self.status is MatchStatus.NEW

    def is_rem(self) -> bool:
        return self.status is MatchStatus.REM

    def sign(self) -> int:
        """+1 for NEW, -1 for REM — convenient for differential counting."""
        return 1 if self.status is MatchStatus.NEW else -1


@dataclass
class WindowStats:
    """Per-window processing statistics recorded by the engine."""

    timestamp: Timestamp = 0
    num_updates: int = 0
    num_new: int = 0
    num_rem: int = 0
    wall_seconds: float = 0.0

    @classmethod
    def from_deltas(
        cls,
        timestamp: Timestamp,
        num_updates: int,
        deltas: Sequence[MatchDelta],
        wall_seconds: float,
    ) -> "WindowStats":
        """Stats of one window's delta list: NEW counted in one pass, REM the rest."""
        new = MatchStatus.NEW
        num_new = sum(1 for delta in deltas if delta.status is new)
        return cls(timestamp, num_updates, num_new, len(deltas) - num_new, wall_seconds)

    @property
    def num_deltas(self) -> int:
        return self.num_new + self.num_rem

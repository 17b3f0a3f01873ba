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
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

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


#: bit ``b`` of a packed lower triangle -> the slot pair ``(j, i)``, ``j < i``,
#: it stands for (see :func:`slot_mask`); rebuilt longer for a wider match
_SLOT_PAIRS: List[Tuple[int, int]] = [(j, i) for i in range(8) for j in range(i)]


def _slot_pairs(bits: int) -> List[Tuple[int, int]]:
    """:data:`_SLOT_PAIRS`, long enough to decode a ``bits``-bit mask."""
    if len(_SLOT_PAIRS) < bits:
        n = 2
        while n * (n - 1) // 2 < bits:
            n += 1
        _SLOT_PAIRS[:] = [(j, i) for i in range(n) for j in range(i)]
    return _SLOT_PAIRS


def slot_mask(vertices: Sequence[VertexId], edges: Iterable[EdgeKey]) -> int:
    """The packed lower triangle of ``edges`` over the slots of ``vertices``.

    Edge ``{vertices[j], vertices[i]}`` with ``j < i`` is bit
    ``i * (i - 1) // 2 + j``: row ``i`` of a
    :class:`~repro.graph.bitset.BitMatrix` shifted to offset
    ``i * (i - 1) // 2``.  An edge given twice, or as ``(u, v)`` and
    ``(v, u)``, is one bit.  A self-loop is a ``ValueError``, an endpoint
    outside ``vertices`` a ``KeyError``.
    """
    index = {v: i for i, v in enumerate(vertices)}
    mask = 0
    for u, v in edges:
        i, j = index[u], index[v]
        if i == j:
            raise ValueError(f"self-loop edge ({u}, {v})")
        if i < j:
            i, j = j, i
        mask |= 1 << (i * (i - 1) // 2 + j)
    return mask


def slot_edges(mask: int) -> List[Tuple[int, int]]:
    """The slot pairs ``(j, i)``, ``j < i``, of a packed lower triangle, in
    bit order."""
    pairs = _slot_pairs(mask.bit_length())
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(pairs[low.bit_length() - 1])
    return out


class MatchSubgraph:
    """An immutable subgraph emitted as part of a match delta.

    ``vertices`` preserves the (canonical) exploration order.  The edges
    are held as ``mask``, the packed lower triangle over those slots (see
    :func:`slot_mask`; what :meth:`SubgraphView.freeze` reads off the
    explorer's matrix), so a match costs one int however many edges it
    has, and a pickle ships that int.  ``edges``, the frozenset of
    normalized edge keys, is derived from the mask on first read and kept.
    ``vertex_labels`` holds each vertex's label at the relevant snapshot
    (``None`` on an unlabelled graph); ``edge_labels`` holds
    ``((u, v), label)`` pairs sorted by edge, and is empty unless the
    algorithm declared ``uses_edge_labels`` (edge labels are loaded
    lazily).

    ``MatchSubgraph(vertices, edges, ...)`` computes the mask from the
    edges; :meth:`from_mask` takes it as it is.  Equality, hashing and
    ``repr`` mean what they meant when the edges were stored: two matches
    are equal iff their vertex orders, edge sets and labels are.
    """

    __slots__ = ("vertices", "mask", "vertex_labels", "edge_labels", "_edges")

    vertices: Tuple[VertexId, ...]
    mask: int
    vertex_labels: Tuple[Label, ...]
    edge_labels: Tuple[Tuple[EdgeKey, Label], ...]

    def __init__(
        self,
        vertices: Tuple[VertexId, ...],
        edges: Iterable[EdgeKey],
        vertex_labels: Tuple[Label, ...] = (),
        edge_labels: Tuple[Tuple[EdgeKey, Label], ...] = (),
    ) -> None:
        mask = slot_mask(vertices, edges)
        if vertex_labels and len(vertex_labels) != len(vertices):
            raise ValueError("vertex_labels must align with vertices")
        if edge_labels and len(edge_labels) != mask.bit_count():
            raise ValueError("edge_labels must align with edges")
        _set_vertices(self, vertices)
        _set_mask(self, mask)
        _set_vertex_labels(self, vertex_labels)
        _set_edge_labels(self, edge_labels)

    @classmethod
    def from_mask(
        cls,
        vertices: Tuple[VertexId, ...],
        mask: int,
        vertex_labels: Tuple[Label, ...] = (),
        edge_labels: Tuple[Tuple[EdgeKey, Label], ...] = (),
    ) -> "MatchSubgraph":
        """The match with the edges of ``mask`` over ``vertices``, unchecked."""
        match = _new(cls)
        _set_vertices(match, vertices)
        _set_mask(match, mask)
        _set_vertex_labels(match, vertex_labels)
        _set_edge_labels(match, edge_labels)
        return match

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (
            self.__class__.from_mask,
            (self.vertices, self.mask, self.vertex_labels, self.edge_labels),
        )

    def _key(self) -> tuple:
        return (self.vertices, self.mask, self.vertex_labels, self.edge_labels)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"MatchSubgraph(vertices={self.vertices!r}, edges={self.edges!r}, "
            f"vertex_labels={self.vertex_labels!r}, "
            f"edge_labels={self.edge_labels!r})"
        )

    @property
    def edges(self) -> FrozenSet[EdgeKey]:
        """The normalized edge keys, derived from ``mask`` once."""
        try:
            return self._edges
        except AttributeError:
            pass
        verts = self.vertices
        keys = []
        for j, i in slot_edges(self.mask):
            u, v = verts[j], verts[i]
            keys.append((u, v) if u <= v else (v, u))
        edges = frozenset(keys)
        _set_edges(self, edges)
        return edges

    @property
    def identity(self) -> Tuple[FrozenSet[VertexId], FrozenSet[EdgeKey]]:
        """Hashable identity of the match, independent of exploration order."""
        return (frozenset(self.vertices), self.edges)

    def num_vertices(self) -> int:
        return len(self.vertices)

    def num_edges(self) -> int:
        return self.mask.bit_count()

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


_new = object.__new__
_set_vertices = MatchSubgraph.vertices.__set__  # type: ignore[attr-defined]
_set_mask = MatchSubgraph.mask.__set__  # type: ignore[attr-defined]
_set_vertex_labels = MatchSubgraph.vertex_labels.__set__  # type: ignore[attr-defined]
_set_edge_labels = MatchSubgraph.edge_labels.__set__  # type: ignore[attr-defined]
_set_edges = MatchSubgraph._edges.__set__  # type: ignore[attr-defined]


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

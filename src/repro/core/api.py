"""The core mining API: the filter-match programming model (paper section 3.1).

Applications implement two functions over candidate subgraphs:

* ``filter(s)`` — whether to keep exploring ``s`` and its extensions.  Must
  be **anti-monotone** (once false, false for every extension).  The
  paper's second requirement, **boundedness**, is enforced by the engine:
  a subgraph of :attr:`MiningAlgorithm.max_size` vertices is evaluated but
  never expanded.  The bound is on expansion, not on the root: every update
  starts at the two-vertex subgraph of its edge, and ``filter`` is asked
  about that root (once per graph version) whatever ``max_size`` says.
* ``match(s)`` — whether ``s`` is a match.  Only called on subgraphs that
  pass ``filter`` and are connected; the connectivity check is performed by
  the system, as in Algorithm 2.

Developers write these as if the graph were static; Tesseract runs them
incrementally over graph updates and emits NEW/REM match deltas.

Note on intermediate subgraphs: during vertex-induced exploration a
candidate subgraph may be *disconnected* (the system explores neighborhoods
of the update, and the pre-update version of a subgraph can lack the update
edge — see the worked example in paper section 4.3).  ``filter`` must
therefore tolerate disconnected inputs; use edge/degree structure rather
than assuming connectivity.  ``match`` never sees disconnected subgraphs.
"""

from __future__ import annotations

import abc
import enum

from repro.graph.subgraph import SubgraphView


class InducedMode(enum.Enum):
    """Subgraph semantics (paper section 2)."""

    VERTEX = "vertex"
    EDGE = "edge"


#: Convenience aliases used by application constructors.
VertexInduced = InducedMode.VERTEX
EdgeInduced = InducedMode.EDGE


class MiningAlgorithm(abc.ABC):
    """A graph mining application in the filter-match model.

    Subclasses implement :meth:`filter` and :meth:`match` and set
    :attr:`max_size` for boundedness.  ``induced`` selects vertex-induced
    (default, used by most algorithms) or edge-induced exploration (needed
    by e.g. frequent subgraph mining).
    """

    #: Maximum number of vertices in any explored subgraph (boundedness).
    #: ``filter`` is never handed more — except the two-vertex root of an
    #: update, which is always evaluated, also when ``max_size < 2``.
    max_size: int = 4

    #: Subgraph semantics; vertex-induced unless overridden.
    induced: InducedMode = InducedMode.VERTEX

    #: Inert: nothing reads this flag.  Session output is always in
    #: timestamp order (windows run, publish and ack one at a time), so
    #: section 3.1's ordered mode needs no switch.  Kept only until the
    #: benchmark's ``TimedAlgorithm`` proxy forwards attributes instead of
    #: copying this one.
    ordered_output: bool = False

    #: Whether candidate subgraphs should expose edge labels
    #: (``SubgraphView.edge_label``); loading them costs extra store
    #: lookups, so it is opt-in.
    uses_edge_labels: bool = False

    #: Whether candidate subgraphs should expose edge directions
    #: (``SubgraphView.has_directed_edge`` / ``in_degree`` / ``out_degree``).
    uses_directions: bool = False

    @abc.abstractmethod
    def filter(self, s: SubgraphView) -> bool:
        """Whether to continue exploring ``s`` and its extensions."""

    @abc.abstractmethod
    def match(self, s: SubgraphView) -> bool:
        """Whether the (connected, filter-passing) subgraph ``s`` matches."""

    # -- defaults ------------------------------------------------------------

    def required_row(self, n: int) -> int:
        """The slots a vertex joining a filter-passing ``n``-vertex subgraph
        must be adjacent to, as a bitmask over slots ``0 .. n-1``: a child
        whose new row misses one of them fails ``filter``.

        Vertex-induced mode asks this once per EXPLORE call whose children
        have one live version (a child with two is built and filtered as
        usual) and rejects such a child on its adjacency row, before it is
        built or ``filter`` is called; the veto is counted as a ``filter``
        call that rejected.  Name only slots ``filter`` needs.  The
        default, 0, names none.
        """
        return 0

    @property
    def name(self) -> str:
        return type(self).__name__


class EmptyAlgorithm(MiningAlgorithm):
    """An algorithm that explores nothing — used to measure ingress rates.

    This is the "empty algorithm that does not do any processing or matching
    of updates" from the paper's ingress-scalability experiment (section
    6.5.5).  Its ``max_size`` of 0 stops every expansion but not the root:
    ``filter`` is still called twice per update (pre and post version),
    which is the per-task cost every other algorithm pays too.
    """

    max_size = 0

    def filter(self, s: SubgraphView) -> bool:
        return False

    def match(self, s: SubgraphView) -> bool:
        return False

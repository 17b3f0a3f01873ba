"""Frequent subgraph mining (k-FSM-s), paper section 3.3.

FSM enumerates all *frequent* subgraphs: those whose pattern has a
minimum-image-based (MNI) support [Bringmann & Nijssen] above a threshold
``s``.  Tesseract executes FSM with edge-induced subgraphs and a custom
aggregation (AGG) downstream of the match stream:

* every connected edge-induced subgraph up to size k is emitted by the
  engine as a NEW/REM delta;
* the aggregator attributes each match's vertices to the automorphism
  orbits of its pattern's canonical form and maintains, per (pattern,
  orbit), a multiset of data vertices — MNI support is the minimum distinct
  vertex count over orbits;
* matches of frequent patterns are emitted; matches of infrequent patterns
  are discarded (only support state is kept).  When a pattern's support
  crosses the threshold upward, its matches are **re-mined** from the
  current graph snapshot and emitted (the paper's recompute-on-crossing
  strategy); when it crosses downward, a ``lost_support`` event is emitted
  without enumeration.

Because support values must be consistent across updates, FSM consumes the
delta stream in timestamp order (ordered output mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.core.api import EdgeInduced, MiningAlgorithm
from repro.errors import AggregationError
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.canonical import (
    CanonicalForm,
    automorphism_orbits,
    canonical_form_with_mapping,
    slot_edge_labels,
)
from repro.graph.pattern import Pattern
from repro.graph.subgraph import SubgraphView
from repro.types import MatchDelta, MatchSubgraph, Timestamp, VertexId, slot_edges


class FrequentSubgraphMining(MiningAlgorithm):
    """The exploration side of k-FSM-s: all edge-induced subgraphs up to k.

    Frequency is a *global* property, so it cannot prune exploration; it is
    enforced by :class:`FSMPipeline` downstream.
    """

    induced = EdgeInduced

    def __init__(
        self, k: int = 3, min_edges: int = 1, edge_labeled: bool = False
    ) -> None:
        self.max_size = k
        self.min_edges = min_edges
        #: with edge_labeled=True, emitted matches carry edge labels and
        #: the FSM pipeline distinguishes patterns by them
        self.uses_edge_labels = edge_labeled

    @property
    def name(self) -> str:
        return f"{self.max_size}-FSM"

    def filter(self, s: SubgraphView) -> bool:
        return len(s) <= self.max_size

    def match(self, s: SubgraphView) -> bool:
        return s.num_edges() >= self.min_edges


def pattern_of(match: MatchSubgraph) -> Tuple[CanonicalForm, Tuple[int, ...]]:
    """Canonical (labeled) pattern of a match plus slot mapping per vertex.

    When the match carries edge labels (``edge_labeled=True`` on the
    algorithm) they become part of the pattern identity: the same structure
    with differently labeled edges is a different pattern, and its support
    is maintained separately.
    """
    edges = slot_edges(match.mask)
    labels = match.vertex_labels if match.vertex_labels else None
    edge_label_map = None
    if match.edge_labels:
        edge_label_map = slot_edge_labels(match, edges)
    return canonical_form_with_mapping(
        len(match.vertices), edges, labels, edge_label_map
    )


@dataclass
class _PatternState:
    """Differential MNI state for one pattern."""

    form: CanonicalForm
    #: orbit id -> {data vertex -> reference count}
    images: Dict[int, Dict[VertexId, int]] = field(default_factory=dict)
    num_matches: int = 0
    frequent: bool = False

    def support(self) -> int:
        if not self.images:
            return 0
        return min(len(bag) for bag in self.images.values())


@dataclass(frozen=True)
class FSMEvent:
    """A threshold crossing reported by the pipeline."""

    timestamp: Timestamp
    pattern: CanonicalForm
    kind: str  # "became_frequent" | "lost_support"
    support: int


class FSMPipeline:
    """Custom AGG maintaining MNI support and the frequent-match output.

    ``snapshot_provider`` returns the graph as of a timestamp; it is used to
    re-mine a pattern's matches when it becomes frequent (matches seen while
    the pattern was infrequent were discarded to save space).
    """

    def __init__(
        self,
        threshold: int,
        snapshot_provider: Optional[Callable[[Timestamp], AdjacencyGraph]] = None,
    ) -> None:
        if threshold < 1:
            raise ValueError("support threshold must be positive")
        self.threshold = threshold
        self.snapshot_provider = snapshot_provider
        self._patterns: Dict[CanonicalForm, _PatternState] = {}
        self.events: List[FSMEvent] = []
        self.emitted: List[MatchDelta] = []
        self.rematerializations = 0

    # -- stream consumption ------------------------------------------------

    def consume(self, deltas: List[MatchDelta]) -> None:
        """Fold an ordered batch of match deltas into FSM state."""
        for delta in deltas:
            self._apply(delta)

    def _apply(self, delta: MatchDelta) -> None:
        form, mapping = pattern_of(delta.subgraph)
        orbits = automorphism_orbits(form)
        state = self._patterns.get(form)
        if state is None:
            state = _PatternState(form=form)
            self._patterns[form] = state
        sign = delta.sign()
        for i, v in enumerate(delta.subgraph.vertices):
            orbit = orbits[mapping[i]]
            bag = state.images.setdefault(orbit, {})
            count = bag.get(v, 0) + sign
            if count < 0:
                raise AggregationError(
                    f"vertex image retracted below zero for pattern {form}"
                )
            if count == 0:
                bag.pop(v, None)
            else:
                bag[v] = count
        state.num_matches += sign
        if delta.is_new() and state.frequent:
            self.emitted.append(delta)
        elif delta.is_rem() and state.frequent:
            self.emitted.append(delta)
        self._check_threshold(state, delta.timestamp)
        if state.num_matches == 0 and state.support() == 0:
            del self._patterns[form]

    def _check_threshold(self, state: _PatternState, ts: Timestamp) -> None:
        support = state.support()
        if not state.frequent and support >= self.threshold:
            state.frequent = True
            self.events.append(
                FSMEvent(ts, state.form, "became_frequent", support)
            )
            self._rematerialize(state, ts)
        elif state.frequent and support < self.threshold:
            # Do not re-enumerate to invalidate; just report lost support
            # (the paper's downward-crossing strategy).
            state.frequent = False
            self.events.append(FSMEvent(ts, state.form, "lost_support", support))

    def _rematerialize(self, state: _PatternState, ts: Timestamp) -> None:
        """Re-mine and emit all matches of a newly frequent pattern.

        Mining a single pattern is much cheaper than mining all patterns
        (paper section 3.3); it is a fixed-pattern subgraph query against
        the snapshot at ``ts``.
        """
        if self.snapshot_provider is None:
            return
        if state.form.edge_labels:
            # Pattern graphs carry vertex labels only; edge-labeled
            # patterns report the crossing event without re-enumeration
            # (their live matches continue to stream normally).
            return
        from repro.baselines.static_engine import PatternMatcher

        graph = self.snapshot_provider(ts)
        pattern = Pattern.from_canonical(state.form)
        matcher = PatternMatcher(pattern, induced=False)
        self.rematerializations += 1
        from repro.types import MatchStatus

        for match in matcher.matches(graph):
            self.emitted.append(MatchDelta(ts, MatchStatus.NEW, match))

    # -- results ---------------------------------------------------------

    def support_of(self, form: CanonicalForm) -> int:
        state = self._patterns.get(form)
        return state.support() if state else 0

    def frequent_patterns(self) -> Dict[CanonicalForm, int]:
        """Patterns currently at or above the support threshold."""
        return {
            form: state.support()
            for form, state in self._patterns.items()
            if state.frequent
        }

    def all_supports(self) -> Dict[CanonicalForm, int]:
        return {form: state.support() for form, state in self._patterns.items()}

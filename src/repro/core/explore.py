"""Update-based exploration: EXPLORE and DETECT_CHANGES (paper Algorithm 2).

For each edge update the explorer recursively expands the subgraph rooted at
the update, using depth-first expansion and backtracking.  At every expanded
subgraph, differential processing evaluates both the pre-window and
post-window versions (section 4.3): a pre version that is connected, passes
``filter``, and passes ``match`` is a *removed* match (REM); a post version
that does is a *new* match (NEW).  The continuation flags ``c_pre`` and
``c_post`` carry anti-monotone pruning independently for the two versions.

Both added and deleted edges are treated identically (the store's
:class:`~repro.store.snapshot.ExplorationView` exposes the union of the two
snapshots, so deletions' neighborhoods remain reachable).

Most nodes are built, rejected by ``filter`` and torn down again, so a node
is kept cheap: the two :class:`~repro.graph.subgraph.SubgraphView` objects
are built once per engine over the live vertex list and matrices, re-rooted
by every update and re-used by every node, expanding and backtracking are
O(1) row operations, and attempts and expansions are accounted once per
EXPLORE call.  What the views resolve from the store follows the store's
capability facts, read once per update: on a store where no vertex ever had
a label, an emitted match reads no label.
"""

from __future__ import annotations

from operator import attrgetter
from types import SimpleNamespace
from typing import List, Optional

from repro.core.api import InducedMode, MiningAlgorithm
from repro.core.canonicality import (
    ALLOWED,
    PRUNED_RULE2,
    edge_expansion_pool_ex,
    vertex_expansion_reason,
)
from repro.core.metrics import Metrics, Stopwatch
from repro.graph.bitset import BitMatrix
from repro.graph.subgraph import SubgraphView
from repro.store.api import CAPABILITY_FACTS
from repro.store.snapshot import ExplorationView
from repro.types import EdgeUpdate, MatchDelta, MatchStatus, VertexId

#: outcomes of evaluating one subgraph version
_REJECTED, _KEPT, _MATCHED = range(3)

#: what a store that declares no capability facts answers: every fact True
_ALL_FACTS = SimpleNamespace(**dict.fromkeys(CAPABILITY_FACTS, True))


def _nothing(a: VertexId, b: VertexId) -> None:
    """The edge-label / direction resolver of a store that holds none."""
    return None


def _resolver(fact: Optional[bool], store_read):
    """An edge resolver: ``store_read`` while the store may hold a value,
    :func:`_nothing` once its fact says it holds none, and no resolver at
    all (``fact`` None) for what the algorithm does not read."""
    if fact is None:
        return None
    return store_read if fact else _nothing


class Explorer:
    """Executes Algorithm 2 for single updates against an exploration view."""

    def __init__(
        self,
        algorithm: MiningAlgorithm,
        metrics: Optional[Metrics] = None,
        telemetry=None,
        profile=None,
    ) -> None:
        from repro.telemetry import ensure, ensure_profile

        self.algorithm = algorithm
        self.metrics = metrics if metrics is not None else Metrics()
        # Exploration attribution: one cached flag guards every recording
        # site, so the disabled path costs a branch per event (RL004 allows
        # branching on ``.enabled``, never on ``profile is None``).
        self.profile = ensure_profile(profile)
        self._profiling = self.profile.enabled
        # Figure 6 categories as per-call duration histograms.  Observations
        # happen inside the already timing-gated Stopwatch blocks, so the
        # untimed hot path never touches the registry; with no telemetry the
        # null registry hands back the shared no-op instrument (RL004).
        registry = ensure(telemetry).registry
        self._hist_filter = registry.histogram(
            "repro_engine_filter_call_seconds",
            "duration of individual filter calls (timing mode only)",
        ).labels()
        self._hist_match = registry.histogram(
            "repro_engine_match_call_seconds",
            "duration of individual match calls (timing mode only)",
        ).labels()
        self._hist_can_expand = registry.histogram(
            "repro_engine_can_expand_call_seconds",
            "duration of individual CAN_EXPAND calls (timing mode only)",
        ).labels()
        # One vertex list, two matrices and two views for the engine's whole
        # life: every update re-roots them, every node of every search tree
        # is handed the same two views.  An edge-induced subgraph is its
        # chosen edges in either version, so there both views share ``_pre``.
        self._vertex_induced = algorithm.induced is InducedMode.VERTEX
        self._verts: List[VertexId] = []
        self._pre = BitMatrix()
        self._post = BitMatrix() if self._vertex_induced else self._pre
        self._s_pre = SubgraphView(self._verts, self._pre)
        self._s_post = SubgraphView(self._verts, self._post)
        # The store's capability facts the views depend on: vertex labels
        # always (``freeze``), edge labels and directions if the algorithm
        # reads them.  ``explore_update`` reads them once per task and
        # re-points the resolvers only when they differ from the last task's;
        # until then every resolver reads the store.
        facts = ["has_vertex_labels"]
        if algorithm.uses_edge_labels:
            facts.append("has_edge_labels")
        if algorithm.uses_directions:
            facts.append("has_directions")
        self._fact_names = tuple(facts)
        self._read_facts = attrgetter(*facts)
        self._undeclared = self._read_facts(_ALL_FACTS)
        self._facts = None
        self._adopt_facts(self._undeclared)
        # Per-exploration state (reset by explore_update).
        self._view: ExplorationView = None  # type: ignore[assignment]
        self._out: List[MatchDelta] = []
        # filter / match verdicts of the current update, profiled runs only:
        # [filter passed, filter rejected, matched, match rejected]
        self._verdicts = [0, 0, 0, 0]

    # -- store resolvers of the two views ----------------------------------

    def _adopt_facts(self, facts) -> None:
        """Point each view resolver at the store, or — where the fact says
        the store holds no such value — at a constant ``None``.

        Resolvers read ``self._view``: nothing is read from the store until
        filter/match (or freeze) asks for it.
        """
        self._facts = facts
        if len(self._fact_names) == 1:  # attrgetter of one name: a bare value
            facts = (facts,)
        has = dict(zip(self._fact_names, facts))
        for s, (label_fn, edge_label_fn, direction_fn) in (
            (self._s_pre, (self._label_pre, self._edge_label_pre, self._direction_pre)),
            (
                self._s_post,
                (self._label_post, self._edge_label_post, self._direction_post),
            ),
        ):
            s.resolve_with(
                label_fn if has["has_vertex_labels"] else None,
                _resolver(has.get("has_edge_labels"), edge_label_fn),
                _resolver(has.get("has_directions"), direction_fn),
            )

    def _label_pre(self, v: VertexId):
        return self._view.vertex_label(v, True)

    def _label_post(self, v: VertexId):
        return self._view.vertex_label(v)

    def _edge_label_pre(self, a: VertexId, b: VertexId):
        view = self._view
        return view.store.edge_label_at(a, b, view.ts - 1)

    def _edge_label_post(self, a: VertexId, b: VertexId):
        view = self._view
        return view.store.edge_label_at(a, b, view.ts)

    def _direction_pre(self, a: VertexId, b: VertexId):
        view = self._view
        return view.store.edge_direction_at(a, b, view.ts - 1)

    def _direction_post(self, a: VertexId, b: VertexId):
        view = self._view
        return view.store.edge_direction_at(a, b, view.ts)

    # -- entry point -----------------------------------------------------

    def explore_update(
        self, view: ExplorationView, update: EdgeUpdate
    ) -> List[MatchDelta]:
        """Compute all match-set changes rooted at one edge update.

        Re-rooting comes first, so whatever a task that raised mid-tree
        left in the vertex list and the matrices is gone before this one
        reads them; the verdicts it had counted go to its own record.
        """
        self._view = view
        self._out = []
        try:
            facts = self._read_facts(view.store)
        except AttributeError:  # a store that declares no facts
            facts = self._undeclared
        if facts != self._facts:
            self._adopt_facts(facts)
        if self._profiling:
            self._flush_verdicts()
            self.profile.begin_update(view.ts, update)
        u, v = update.u, update.v
        self._verts[:] = (u, v)
        alive_pre, alive_post = view.update_edge_state(u, v)
        vertex_induced = self._vertex_induced
        if vertex_induced:
            self._s_pre.reroot(alive_pre)
            self._s_post.reroot(alive_post)
        else:
            # the update edge is always part of an edge-induced subgraph
            self._s_pre.reroot(True)
            self._s_post.reroot(True)
        if self._profiling:
            self.profile.node(2)
        if vertex_induced:
            c_pre, c_post = self._detect_changes(True, True)
            if (c_pre or c_post) and 2 < self.algorithm.max_size:
                self._explore_v(self._pre, self._post, update.key, c_pre, c_post)
        else:
            # a version in which the update edge is missing does not exist
            c_pre, c_post = self._detect_changes(alive_pre, alive_post)
            if (c_pre or c_post) and 2 < self.algorithm.max_size:
                self._explore_e(
                    self._pre,
                    update.key,
                    int(not alive_pre),
                    int(not alive_post),
                    c_pre,
                    c_post,
                )
        if self._profiling:
            self._flush_verdicts()
        return self._out

    def _flush_verdicts(self) -> None:
        """Hand the profile the verdict counts of the update it attributes to."""
        verdicts = self._verdicts
        if any(verdicts):
            kept, rejected, matched, unmatched = verdicts
            self.profile.filter_call(True, kept)
            self.profile.filter_call(False, rejected)
            self.profile.match_call(True, matched)
            self.profile.match_call(False, unmatched)
            verdicts[:] = (0, 0, 0, 0)

    # -- vertex-induced mode ---------------------------------------------

    def _explore_v(
        self,
        pre: BitMatrix,
        post: BitMatrix,
        start_key,
        c_pre: bool,
        c_post: bool,
    ) -> None:
        metrics = self.metrics
        verts = self._verts
        depth = len(verts) + 1
        # The frontier is a leaf: a subgraph of ``max_size`` vertices is
        # evaluated like any other but never expanded.
        descend = depth < self.algorithm.max_size
        candidates = self._candidate_bits()
        timing = metrics.timing_enabled
        # For a child of the root rule 2 is vacuous (it looks at slots 2..),
        # and with equal masks no edge to the candidate was updated in this
        # window, so there is no same-window edge to reject either.
        at_root = depth == 3
        expansions = 0
        for v in sorted(candidates):
            pre_bits, post_bits = candidates[v]
            if timing:
                with Stopwatch(metrics, "can_expand_seconds", self._hist_can_expand):
                    reason = vertex_expansion_reason(
                        verts, start_key, v, pre_bits, post_bits
                    )
            elif at_root and pre_bits == post_bits:
                reason = ALLOWED
            else:
                reason = vertex_expansion_reason(
                    verts, start_key, v, pre_bits, post_bits
                )
            if reason != ALLOWED:
                if self._profiling:
                    if reason == PRUNED_RULE2:
                        self.profile.pruned_rule2()
                    else:
                        self.profile.pruned_same_window()
                continue
            expansions += 1
            verts.append(v)
            # A version whose flag dropped stays down for the whole subtree
            # and its matrix is never read there: only live versions grow.
            if c_pre:
                pre.append_row(pre_bits)
            if c_post:
                post.append_row(post_bits)
            c_pre2, c_post2 = self._detect_changes(c_pre, c_post)
            if descend and (c_pre2 or c_post2):
                self._explore_v(pre, post, start_key, c_pre2, c_post2)
            if c_pre:
                pre.pop_row()
            if c_post:
                post.pop_row()
            verts.pop()
        self._account(len(candidates), expansions, depth)

    def _account(self, attempts: int, expansions: int, depth: int) -> None:
        """One EXPLORE call's counts: all its children share ``depth``."""
        metrics = self.metrics
        metrics.explore_calls += 1
        metrics.can_expand_calls += attempts
        metrics.expansions += expansions
        if self._profiling:
            self.profile.attempt(attempts)
            if expansions:
                self.profile.expansion(expansions)
                self.profile.node(depth, expansions)

    def _candidate_bits(self):
        """Expansion candidates with their subgraph adjacency bitmasks.

        Walks the fetched adjacency map of every subgraph vertex once and
        accumulates, per outside neighbor, which slots it connects to in
        the pre- and post-window snapshots.
        """
        view = self._view
        verts = self._verts
        members = set(verts)
        candidates: dict = {}
        for i, u in enumerate(verts):
            bit = 1 << i
            for n, (alive_pre, alive_post) in view.adjacency(u).items():
                if n in members:
                    continue
                entry = candidates.get(n)
                if entry is None:
                    entry = candidates[n] = [0, 0]
                if alive_pre:
                    entry[0] |= bit
                if alive_post:
                    entry[1] |= bit
        return candidates

    def _detect_changes(self, c_pre: bool, c_post: bool):
        """DETECT_CHANGES (Algorithm 2 lines 8-18) at the current node.

        Returns the continuation flags: a version's flag drops when its
        ``filter`` fails.  Edge-induced callers pass a flag already lowered
        for a version in which a chosen edge is missing: that version does
        not exist, here or in any extension.
        """
        if c_pre:
            s = self._s_pre
            s.rebind()
            state = self._evaluate(s)
            if state == _MATCHED:
                self._emit(MatchStatus.REM, s)
            elif state == _REJECTED:
                c_pre = False
        if c_post:
            s = self._s_post
            s.rebind()
            state = self._evaluate(s)
            if state == _MATCHED:
                self._emit(MatchStatus.NEW, s)
            elif state == _REJECTED:
                c_post = False
        return c_pre, c_post

    def _evaluate(self, s: SubgraphView) -> int:
        """filter -> connectivity -> match, as a tri-state.

        A failed filter (stop exploring this version) is distinct from a
        subgraph that is kept but is not a match.
        """
        algorithm = self.algorithm
        metrics = self.metrics
        metrics.filter_calls += 1
        if metrics.timing_enabled:
            with Stopwatch(metrics, "filter_seconds", self._hist_filter):
                keep = algorithm.filter(s)
        else:
            keep = algorithm.filter(s)
        if self._profiling:
            self._verdicts[0 if keep else 1] += 1
        if not keep:
            return _REJECTED
        if not s.is_connected():
            return _KEPT
        metrics.match_calls += 1
        if metrics.timing_enabled:
            with Stopwatch(metrics, "match_seconds", self._hist_match):
                matched = algorithm.match(s)
        else:
            matched = algorithm.match(s)
        if self._profiling:
            self._verdicts[2 if matched else 3] += 1
        return _MATCHED if matched else _KEPT

    def _emit(self, status: MatchStatus, s: SubgraphView) -> None:
        self.metrics.emits += 1
        if self._profiling:
            self.profile.emit(status is MatchStatus.NEW)
        self._out.append(MatchDelta(self._view.ts, status, s.freeze()))

    # -- edge-induced mode -----------------------------------------------

    def _explore_e(
        self,
        chosen: BitMatrix,
        start_key,
        missing_pre: int,
        missing_post: int,
        c_pre: bool,
        c_post: bool,
    ) -> None:
        metrics = self.metrics
        verts = self._verts
        depth = len(verts) + 1
        descend = depth < self.algorithm.max_size
        candidates = self._candidate_bits()
        timing = metrics.timing_enabled
        expansions = 0
        for v in sorted(candidates):
            pre_bits, post_bits = candidates[v]
            if timing:
                with Stopwatch(metrics, "can_expand_seconds", self._hist_can_expand):
                    pool, excluded = edge_expansion_pool_ex(
                        verts, start_key, v, pre_bits, post_bits
                    )
            else:
                pool, excluded = edge_expansion_pool_ex(
                    verts, start_key, v, pre_bits, post_bits
                )
            if pool is None:
                if self._profiling:
                    self.profile.pruned_rule2()
                continue
            if excluded and self._profiling:
                self.profile.pruned_same_window(excluded)
            # One expansion per subset of the connecting edges, including the
            # empty subset: a vertex may join now and become connected by a
            # later vertex's edges (connectivity is checked at match time).
            expansions += 1 << len(pool)
            for subset in _subsets(pool):
                bits = 0
                child_missing_pre = missing_pre
                child_missing_post = missing_post
                for slot, a_pre, a_post in subset:
                    bits |= 1 << slot
                    if not a_pre:
                        child_missing_pre += 1
                    if not a_post:
                        child_missing_post += 1
                verts.append(v)
                chosen.append_row(bits)
                # An edge-induced version exists only when all chosen edges
                # are alive in that snapshot; a missing edge stays missing in
                # every extension, so the flag drops permanently.
                c_pre2, c_post2 = self._detect_changes(
                    c_pre and not child_missing_pre,
                    c_post and not child_missing_post,
                )
                if descend and (c_pre2 or c_post2):
                    self._explore_e(
                        chosen,
                        start_key,
                        child_missing_pre,
                        child_missing_post,
                        c_pre2,
                        c_post2,
                    )
                chosen.pop_row()
                verts.pop()
        self._account(len(candidates), expansions, depth)


def _subsets(pool):
    """All subsets of the connecting-edge pool, empty subset first."""
    n = len(pool)
    for mask in range(1 << n):
        yield [pool[i] for i in range(n) if (mask >> i) & 1]

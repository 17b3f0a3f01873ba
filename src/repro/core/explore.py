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

Most children are rejected by ``filter``.  In vertex-induced mode a
child with one live version, of an algorithm that declares a required row
(:meth:`~repro.core.api.MiningAlgorithm.required_row`), that misses one of
its slots is rejected on the row, before anything is built, and counted as
a rejecting ``filter`` call.  The rest are built, rejected and torn down
again, so a node is kept cheap: the two
:class:`~repro.graph.subgraph.SubgraphView` objects are built once per
engine over the live vertex list and matrices, re-rooted by every update
and re-used by every node, expanding and backtracking are O(1) row
operations, a node is evaluated in the frame that built it, and
attempts and expansions are accounted once per EXPLORE call.  Once one
version's ``filter`` has failed, the rest of the subtree is single-version
(DDSL's observation: only embeddings that still hold an updated edge in
both versions need two-version treatment), so an EXPLORE call with one
live version binds that version once and runs its own loop.  :class:`~repro.core.metrics.Metrics` is the one record the
search writes; a profiled task is the difference of its counters across
the task.  What the views resolve from the store follows the store's
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
from repro.core.metrics import Metrics
from repro.graph.bitset import BitMatrix
from repro.graph.subgraph import SubgraphView
from repro.store.api import CAPABILITY_FACTS
from repro.store.snapshot import ExplorationView
from repro.types import EdgeUpdate, MatchDelta, MatchStatus, VertexId

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
        profile=None,
    ) -> None:
        from repro.telemetry import ExplorationProfile

        self.algorithm = algorithm
        self.metrics = metrics if metrics is not None else Metrics()
        # The two CAN_EXPAND functions, held per explorer so that an
        # :class:`~repro.core.metrics.OperationTimer` can wrap them; each
        # EXPLORE call binds the one it uses once.
        self.vertex_expansion_reason = vertex_expansion_reason
        self.edge_expansion_pool_ex = edge_expansion_pool_ex
        # Decided once: a task is profiled iff this explorer was handed a
        # profile, and then costs two counter snapshots and one record.
        self.profile = profile
        self._profiling = isinstance(profile, ExplorationProfile)
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

        A profiled task hands the profile the :meth:`Metrics.counts` it
        moved, in ``finally``: a task that raised mid-tree keeps what it
        counted up to the raise.
        """
        if not self._profiling:
            return self._explore_update(view, update)
        metrics = self.metrics
        before = metrics.counts()
        try:
            return self._explore_update(view, update)
        finally:
            self.profile.record(
                view.ts,
                update,
                before,
                metrics.counts(),
                self._out,
                self._vertex_induced,
            )

    def _explore_update(
        self, view: ExplorationView, update: EdgeUpdate
    ) -> List[MatchDelta]:
        """One task, unprofiled.  Re-rooting comes first, so whatever a task
        that raised mid-tree left in the vertex list and the matrices is
        gone before this one reads them."""
        self._view = view
        self._out = []
        try:
            facts = self._read_facts(view.store)
        except AttributeError:  # a store that declares no facts
            facts = self._undeclared
        if facts != self._facts:
            self._adopt_facts(facts)
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
        if vertex_induced:
            # a two-vertex root is connected exactly where its edge is alive
            c_pre, c_post, _, _ = self._detect_changes(
                True, True, alive_pre, alive_post
            )
            if (c_pre or c_post) and 2 < self.algorithm.max_size:
                self._explore_v(
                    self._pre,
                    self._post,
                    update.key,
                    c_pre,
                    c_post,
                    alive_pre,
                    alive_post,
                )
        else:
            # a version in which the update edge is missing does not exist
            c_pre, c_post, _, _ = self._detect_changes(alive_pre, alive_post)
            if (c_pre or c_post) and 2 < self.algorithm.max_size:
                self._explore_e(
                    self._pre,
                    update.key,
                    int(not alive_pre),
                    int(not alive_post),
                    c_pre,
                    c_post,
                )
        return self._out

    # -- vertex-induced mode ---------------------------------------------

    def _explore_v(
        self,
        pre: BitMatrix,
        post: BitMatrix,
        start_key,
        c_pre: bool,
        c_post: bool,
        linked_pre: bool,
        linked_post: bool,
    ) -> None:
        """Expand the current node, whose versions are live per ``c_pre`` /
        ``c_post`` and connected per ``linked_pre`` / ``linked_post``.

        Connectivity is inherited: a child of a connected version is
        connected exactly when its new row is non-zero, so only a child of a
        disconnected one asks :meth:`SubgraphView.is_connected`.
        """
        metrics = self.metrics
        verts = self._verts
        depth = len(verts) + 1
        # The frontier is a leaf: a subgraph of ``max_size`` vertices is
        # evaluated like any other but never expanded.
        descend = depth < self.algorithm.max_size
        candidates = self._candidate_bits()
        reason_of = self.vertex_expansion_reason
        # For a child of the root rule 2 is vacuous (it looks at slots 2..),
        # and with equal masks no edge to the candidate was updated in this
        # window, so there is no same-window edge to reject either.
        at_root = depth == 3
        # With one live version (the other's filter failed higher up, and a
        # dropped flag stays down for the whole subtree) every child is a
        # single-version node: it is evaluated here, in this frame, against
        # that version's view, matrix and filter, bound once per call.
        one = not (c_pre and c_post)
        if one:
            s, matrix, side, linked = (
                (self._s_post, post, 1, linked_post)
                if c_post
                else (self._s_pre, pre, 0, linked_pre)
            )
            status = MatchStatus.NEW if c_post else MatchStatus.REM
            algorithm = self.algorithm
            keeps = algorithm.filter
            # A child whose new row misses a slot the algorithm requires
            # fails ``filter``: it is rejected on the row, built by nothing,
            # and counted as the rejecting ``filter`` call it stands for.
            need = algorithm.required_row(len(verts))
        expansions = rule2 = 0
        for v in sorted(candidates):
            bits = candidates[v]
            pre_bits, post_bits = bits
            if at_root and pre_bits == post_bits:
                reason = ALLOWED
            else:
                reason = reason_of(verts, start_key, v, pre_bits, post_bits)
            if reason != ALLOWED:
                if reason == PRUNED_RULE2:
                    rule2 += 1
                continue
            expansions += 1
            if one:
                # DETECT_CHANGES for the one live version, inline; a call is
                # counted once it returned
                row = bits[side]
                if row & need != need:
                    metrics.filter_calls += 1
                    continue
                verts.append(v)
                matrix.append_row(row)
                s.rebind()
                keep = keeps(s)
                metrics.filter_calls += 1
                if keep:
                    metrics.filter_passes += 1
                    child_linked = row != 0 if linked else s.is_connected()
                    if child_linked:
                        matched = algorithm.match(s)
                        metrics.match_calls += 1
                        if matched:
                            self._emit(status, s)
                    if descend:
                        self._explore_v(
                            pre,
                            post,
                            start_key,
                            c_pre,
                            c_post,
                            child_linked,
                            child_linked,
                        )
                matrix.pop_row()
            else:
                # Both versions live: each grows and is evaluated.
                verts.append(v)
                pre.append_row(pre_bits)
                post.append_row(post_bits)
                c_pre2, c_post2, linked_pre2, linked_post2 = self._detect_changes(
                    True,
                    True,
                    pre_bits != 0 if linked_pre else None,
                    post_bits != 0 if linked_post else None,
                )
                if descend and (c_pre2 or c_post2):
                    self._explore_v(
                        pre,
                        post,
                        start_key,
                        c_pre2,
                        c_post2,
                        linked_pre2,
                        linked_post2,
                    )
                pre.pop_row()
                post.pop_row()
            verts.pop()
        self._account(len(candidates), expansions, rule2, depth)

    def _account(
        self, attempts: int, expansions: int, rule2: int, depth: int
    ) -> None:
        """One EXPLORE call's counts: all its children share ``depth``."""
        metrics = self.metrics
        metrics.explore_calls += 1
        metrics.can_expand_calls += attempts
        metrics.expansions += expansions
        metrics.pruned_rule2 += rule2
        if expansions:
            by_depth = metrics.depth_expansions
            if len(by_depth) <= depth:
                by_depth.extend([0] * (depth + 1 - len(by_depth)))
            by_depth[depth] += expansions

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

    def _detect_changes(
        self,
        c_pre: bool,
        c_post: bool,
        linked_pre: Optional[bool] = None,
        linked_post: Optional[bool] = None,
    ):
        """DETECT_CHANGES (Algorithm 2 lines 8-18) at the current node.

        Each live version runs filter -> connectivity -> match -> emit, in
        this frame.  A version's connectivity is ``linked_pre`` /
        ``linked_post`` where the caller knows it, else
        :meth:`SubgraphView.is_connected` answers.  Returns the
        continuation flags, then each version's connectivity (meaningful
        only where its flag stayed up): a version's flag drops
        when its ``filter`` fails; a subgraph that passes but is not a match
        is kept.  Edge-induced callers pass a flag already lowered for a
        version in which a chosen edge is missing: that version does not
        exist, here or in any extension.  A call is counted once it
        returned, so a task that raised counts only what it finished.
        """
        algorithm = self.algorithm
        metrics = self.metrics
        if c_pre:
            s = self._s_pre
            s.rebind()
            keep = algorithm.filter(s)
            metrics.filter_calls += 1
            if not keep:
                c_pre = False
            else:
                metrics.filter_passes += 1
                if linked_pre is None:
                    linked_pre = s.is_connected()
                if linked_pre:
                    matched = algorithm.match(s)
                    metrics.match_calls += 1
                    if matched:
                        self._emit(MatchStatus.REM, s)
        if c_post:
            s = self._s_post
            s.rebind()
            keep = algorithm.filter(s)
            metrics.filter_calls += 1
            if not keep:
                c_post = False
            else:
                metrics.filter_passes += 1
                if linked_post is None:
                    linked_post = s.is_connected()
                if linked_post:
                    matched = algorithm.match(s)
                    metrics.match_calls += 1
                    if matched:
                        self._emit(MatchStatus.NEW, s)
        return c_pre, c_post, linked_pre, linked_post

    def _emit(self, status: MatchStatus, s: SubgraphView) -> None:
        self.metrics.emits += 1
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
        pool_of = self.edge_expansion_pool_ex
        expansions = rule2 = excluded_edges = 0
        for v in sorted(candidates):
            pre_bits, post_bits = candidates[v]
            pool, excluded = pool_of(verts, start_key, v, pre_bits, post_bits)
            if pool is None:
                rule2 += 1
                continue
            excluded_edges += excluded
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
                c_pre2, c_post2, _, _ = self._detect_changes(
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
        metrics.edges_excluded += excluded_edges
        self._account(len(candidates), expansions, rule2, depth)


def _subsets(pool):
    """All subsets of the connecting-edge pool, empty subset first."""
    n = len(pool)
    for mask in range(1 << n):
        yield [pool[i] for i in range(n) if (mask >> i) & 1]

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
"""

from __future__ import annotations

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
from repro.store.snapshot import ExplorationView
from repro.types import EdgeUpdate, MatchDelta, MatchStatus, VertexId


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
        # Per-exploration state (reset by explore_update).
        self._view: ExplorationView = None  # type: ignore[assignment]
        self._verts: List[VertexId] = []
        self._out: List[MatchDelta] = []
        self._last_filter_passed = True
        # Resolvers handed to every SubgraphView: nothing is read from the
        # store until filter/match (or freeze) asks for it.
        self._label_pre = None
        self._label_post = None
        self._edge_label_pre = None
        self._edge_label_post = None
        self._direction_pre = None
        self._direction_post = None

    # -- entry point -----------------------------------------------------

    def explore_update(
        self, view: ExplorationView, update: EdgeUpdate
    ) -> List[MatchDelta]:
        """Compute all match-set changes rooted at one edge update."""
        self._view = view
        self._out = []
        if self._profiling:
            self.profile.begin_update(view.ts, update)
        if self.algorithm.uses_edge_labels:
            store, ts = view.store, view.ts
            self._edge_label_pre = lambda a, b: store.edge_label_at(a, b, ts - 1)
            self._edge_label_post = lambda a, b: store.edge_label_at(a, b, ts)
        else:
            self._edge_label_pre = self._edge_label_post = None
        if self.algorithm.uses_directions:
            store, ts = view.store, view.ts
            self._direction_pre = lambda a, b: store.edge_direction_at(a, b, ts - 1)
            self._direction_post = lambda a, b: store.edge_direction_at(a, b, ts)
        else:
            self._direction_pre = self._direction_post = None
        self._label_pre = lambda v: view.vertex_label(v, True)
        self._label_post = view.vertex_label
        self._verts = [update.u, update.v]
        if self.algorithm.induced is InducedMode.VERTEX:
            self._explore_vertex_induced(update)
        else:
            self._explore_edge_induced(update)
        return self._out

    # -- vertex-induced mode ---------------------------------------------

    def _explore_vertex_induced(self, update: EdgeUpdate) -> None:
        view = self._view
        pre = BitMatrix()
        post = BitMatrix()
        pre.append_row(0)
        post.append_row(0)
        alive_pre, alive_post = view.update_edge_state(update.u, update.v)
        pre.append_row(1 if alive_pre else 0)
        post.append_row(1 if alive_post else 0)
        c_pre, c_post = self._detect_changes(pre, post, True, True)
        if (c_pre or c_post) and len(self._verts) < self.algorithm.max_size:
            self._explore_v(pre, post, update.key, c_pre, c_post)

    def _explore_v(
        self,
        pre: BitMatrix,
        post: BitMatrix,
        start_key,
        c_pre: bool,
        c_post: bool,
    ) -> None:
        self.metrics.explore_calls += 1
        verts = self._verts
        max_size = self.algorithm.max_size
        candidates = self._candidate_bits()
        timing = self.metrics.timing_enabled
        for v in sorted(candidates):
            pre_bits, post_bits = candidates[v]
            self.metrics.can_expand_calls += 1
            if self._profiling:
                self.profile.attempt()
            if timing:
                with Stopwatch(
                    self.metrics, "can_expand_seconds", self._hist_can_expand
                ):
                    reason = vertex_expansion_reason(
                        verts, start_key, v, pre_bits, post_bits
                    )
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
            self.metrics.expansions += 1
            if self._profiling:
                self.profile.expansion()
            verts.append(v)
            # A version whose flag dropped stays down for the whole subtree
            # and its matrix is never read there: only live versions grow.
            if c_pre:
                pre.append_row(pre_bits)
            if c_post:
                post.append_row(post_bits)
            c_pre2, c_post2 = self._detect_changes(pre, post, c_pre, c_post)
            # The frontier is a leaf: a subgraph of ``max_size`` vertices is
            # evaluated like any other but never expanded.
            if (c_pre2 or c_post2) and len(verts) < max_size:
                self._explore_v(pre, post, start_key, c_pre2, c_post2)
            if c_pre:
                pre.pop_row()
            if c_post:
                post.pop_row()
            verts.pop()

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
        self, pre: BitMatrix, post: BitMatrix, c_pre: bool, c_post: bool
    ):
        """DETECT_CHANGES (Algorithm 2 lines 8-18) for vertex-induced mode."""
        if self._profiling:
            self.profile.node(len(self._verts))
        if c_pre:
            s_pre = SubgraphView(
                self._verts,
                pre,
                None,
                self._edge_label_pre,
                self._direction_pre,
                self._label_pre,
            )
            if self._evaluate(s_pre, pre):
                self._emit(MatchStatus.REM, s_pre)
            elif not self._last_filter_passed:
                c_pre = False
        if c_post:
            s_post = SubgraphView(
                self._verts,
                post,
                None,
                self._edge_label_post,
                self._direction_post,
                self._label_post,
            )
            if self._evaluate(s_post, post):
                self._emit(MatchStatus.NEW, s_post)
            elif not self._last_filter_passed:
                c_post = False
        return c_pre, c_post

    def _evaluate(self, s: SubgraphView, matrix: BitMatrix) -> bool:
        """filter -> connectivity -> match; returns whether ``s`` matched.

        Sets ``_last_filter_passed`` so the caller can distinguish a failed
        filter (stop exploring this version) from a mere non-match.
        """
        algorithm = self.algorithm
        metrics = self.metrics
        metrics.filter_calls += 1
        if metrics.timing_enabled:
            with Stopwatch(metrics, "filter_seconds", self._hist_filter):
                keep = algorithm.filter(s)
        else:
            keep = algorithm.filter(s)
        self._last_filter_passed = keep
        if self._profiling:
            self.profile.filter_call(keep)
        if not keep or not matrix.is_connected():
            return False
        metrics.match_calls += 1
        if metrics.timing_enabled:
            with Stopwatch(metrics, "match_seconds", self._hist_match):
                matched = algorithm.match(s)
        else:
            matched = algorithm.match(s)
        if self._profiling:
            self.profile.match_call(matched)
        return matched

    def _emit(self, status: MatchStatus, s: SubgraphView) -> None:
        self.metrics.emits += 1
        if self._profiling:
            self.profile.emit(status is MatchStatus.NEW)
        self._out.append(
            MatchDelta(timestamp=self._view.ts, status=status, subgraph=s.freeze())
        )

    # -- edge-induced mode -----------------------------------------------

    def _explore_edge_induced(self, update: EdgeUpdate) -> None:
        view = self._view
        chosen = BitMatrix()
        chosen.append_row(0)
        chosen.append_row(1)  # the update edge is always part of the subgraph
        alive_pre, alive_post = view.update_edge_state(update.u, update.v)
        missing_pre = 0 if alive_pre else 1
        missing_post = 0 if alive_post else 1
        c_pre, c_post = self._detect_changes_edge(chosen, missing_pre, missing_post, True, True)
        if (c_pre or c_post) and len(self._verts) < self.algorithm.max_size:
            self._explore_e(chosen, update.key, missing_pre, missing_post, c_pre, c_post)

    def _explore_e(
        self,
        chosen: BitMatrix,
        start_key,
        missing_pre: int,
        missing_post: int,
        c_pre: bool,
        c_post: bool,
    ) -> None:
        self.metrics.explore_calls += 1
        verts = self._verts
        max_size = self.algorithm.max_size
        candidates = self._candidate_bits()
        timing = self.metrics.timing_enabled
        for v in sorted(candidates):
            pre_bits, post_bits = candidates[v]
            self.metrics.can_expand_calls += 1
            if self._profiling:
                self.profile.attempt()
            if timing:
                with Stopwatch(
                    self.metrics, "can_expand_seconds", self._hist_can_expand
                ):
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
            for subset in _subsets(pool):
                bits = 0
                add_missing_pre = 0
                add_missing_post = 0
                for slot, a_pre, a_post in subset:
                    bits |= 1 << slot
                    if not a_pre:
                        add_missing_pre += 1
                    if not a_post:
                        add_missing_post += 1
                self.metrics.expansions += 1
                if self._profiling:
                    self.profile.expansion()
                verts.append(v)
                chosen.append_row(bits)
                c_pre2, c_post2 = self._detect_changes_edge(
                    chosen,
                    missing_pre + add_missing_pre,
                    missing_post + add_missing_post,
                    c_pre,
                    c_post,
                )
                if (c_pre2 or c_post2) and len(verts) < max_size:
                    self._explore_e(
                        chosen,
                        start_key,
                        missing_pre + add_missing_pre,
                        missing_post + add_missing_post,
                        c_pre2,
                        c_post2,
                    )
                chosen.pop_row()
                verts.pop()

    def _detect_changes_edge(
        self,
        chosen: BitMatrix,
        missing_pre: int,
        missing_post: int,
        c_pre: bool,
        c_post: bool,
    ):
        """DETECT_CHANGES for edge-induced mode.

        An edge-induced subgraph version exists only when *all* chosen edges
        are alive in that snapshot; a missing edge stays missing in every
        extension, so the continuation flag drops permanently.
        """
        if self._profiling:
            self.profile.node(len(self._verts))
        if c_pre:
            if missing_pre:
                c_pre = False
            else:
                s_pre = SubgraphView(
                    self._verts,
                    chosen,
                    None,
                    self._edge_label_pre,
                    self._direction_pre,
                    self._label_pre,
                )
                if self._evaluate(s_pre, chosen):
                    self._emit(MatchStatus.REM, s_pre)
                elif not self._last_filter_passed:
                    c_pre = False
        if c_post:
            if missing_post:
                c_post = False
            else:
                s_post = SubgraphView(
                    self._verts,
                    chosen,
                    None,
                    self._edge_label_post,
                    self._direction_post,
                    self._label_post,
                )
                if self._evaluate(s_post, chosen):
                    self._emit(MatchStatus.NEW, s_post)
                elif not self._last_filter_passed:
                    c_post = False
        return c_pre, c_post


def _subsets(pool):
    """All subsets of the connecting-edge pool, empty subset first."""
    n = len(pool)
    for mask in range(1 << n):
        yield [pool[i] for i in range(n) if (mask >> i) & 1]

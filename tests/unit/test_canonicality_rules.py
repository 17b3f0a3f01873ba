"""Direct unit tests for the CAN_EXPAND rules (Algorithm 3)."""

import itertools

import pytest

from repro.core.api import EdgeInduced, MiningAlgorithm
from repro.core.canonicality import (
    ALLOWED,
    PRUNED_SAME_WINDOW,
    edge_expansion_pool_ex,
    rule2_ok,
    vertex_expansion_reason,
)
from repro.core.engine import TesseractEngine, collect_matches
from repro.core.explore import Explorer
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.types import EdgeUpdate


class TestRule2:
    def test_anchor_at_root_allows_larger_later(self):
        # s = [1, 2]; candidate 9 anchored at the root can always join
        assert rule2_ok([1, 2], 0b11, 9)

    def test_vertex_after_anchor_must_be_smaller(self):
        # s = [1, 2, 5]; candidate 3 anchored at root, but 5 > 3 was added
        # after the anchor -> reject (3 should have been added before 5)
        assert not rule2_ok([1, 2, 5], 0b001, 3)
        # candidate 7 > 5 is fine
        assert rule2_ok([1, 2, 5], 0b001, 7)

    def test_anchor_vertex_itself_may_be_larger(self):
        # s = [5, 6, 8]; candidate 7 first anchored at 8 (slot 2): the
        # anchor's own id does not constrain
        assert rule2_ok([5, 6, 8], 0b100, 7)

    def test_non_anchor_after_second_anchor(self):
        # s = [1, 2, 4, 6]; candidate 5 anchored at slot 2 (vertex 4), but
        # 6 > 5 added after -> reject
        assert not rule2_ok([1, 2, 4, 6], 0b0100, 5)

    def test_unique_order_exhaustive(self):
        """For every connected 5-vertex graph and every root edge, exactly
        one insertion order of the remaining vertices is accepted."""
        import random

        rng = random.Random(3)
        for _ in range(25):
            n = 5
            edges = set()
            for v in range(1, n):
                edges.add((rng.randrange(v), v))
            for _ in range(rng.randint(0, 4)):
                a, b = rng.sample(range(n), 2)
                edges.add((min(a, b), max(a, b)))
            adj = {v: set() for v in range(n)}
            for a, b in edges:
                adj[a].add(b)
                adj[b].add(a)
            for root in sorted(edges):
                rest = [v for v in range(n) if v not in root]
                accepted = 0
                for perm in itertools.permutations(rest):
                    verts = list(root)
                    ok = True
                    for v in perm:
                        union_bits = 0
                        connected = False
                        for i, u in enumerate(verts):
                            if v in adj[u]:
                                union_bits |= 1 << i
                                connected = True
                        if not connected or not rule2_ok(verts, union_bits, v):
                            ok = False
                            break
                        verts.append(v)
                    accepted += ok
                # connected graph: the full vertex set is reachable from
                # any root, and rule 2 must admit exactly one order
                assert accepted == 1, (sorted(edges), root)


class TestVertexExpansion:
    def test_same_window_lower_edge_rejected(self):
        # exploring from start edge (2, 3); candidate 1 connects via edge
        # (1, 2) updated in this window (pre != post) and (1, 2) < (2, 3)
        verts = [2, 3]
        reason = vertex_expansion_reason(
            verts, (2, 3), 1, pre_bits=0b00, post_bits=0b01
        )
        assert reason == PRUNED_SAME_WINDOW

    def test_same_window_higher_edge_allowed(self):
        # start edge (1, 2); candidate 3 connects via updated edge (2, 3):
        # (2, 3) > (1, 2) -> allowed
        verts = [1, 2]
        reason = vertex_expansion_reason(
            verts, (1, 2), 3, pre_bits=0b00, post_bits=0b10
        )
        assert reason == ALLOWED

    def test_old_edges_never_rejected_by_window_rule(self):
        # stable edge (pre == post bits) is not a window update
        verts = [2, 3]
        reason = vertex_expansion_reason(
            verts, (2, 3), 1, pre_bits=0b01, post_bits=0b01
        )
        assert reason == ALLOWED

    def test_deleted_lower_edge_also_rejected(self):
        # deletion: alive pre, dead post, lower than start
        verts = [2, 3]
        reason = vertex_expansion_reason(
            verts, (2, 3), 1, pre_bits=0b01, post_bits=0b00
        )
        assert reason == PRUNED_SAME_WINDOW


class TestEdgeExpansionPool:
    def test_lower_window_edge_excluded_not_rejecting(self):
        # start (2, 3); candidate 1 has: updated lower edge (1,2) and a
        # stable edge (1,3).  The vertex stays expandable; only the lower
        # updated edge leaves the pool.
        verts = [2, 3]
        pool = edge_expansion_pool_ex(
            verts, (2, 3), 1, pre_bits=0b10, post_bits=0b11
        )[0]
        assert pool is not None
        assert [(slot, pre, post) for slot, pre, post in pool] == [(1, True, True)]

    def test_rule2_still_rejects_vertex(self):
        verts = [1, 2, 5]
        assert edge_expansion_pool_ex(verts, (1, 2), 3, 0b001, 0b001)[0] is None


class TestEdgeInducedSameWindowRegression:
    """The case that forces per-edge (not per-vertex) window exclusion.

    Window adds e1=(1,2) and e2=(2,3); edge (1,3) is old.  The edge set
    {(2,3), (1,3)} contains e2 but NOT e1, so it must be discovered from
    e2's exploration even though vertex 1 also connects via the lower
    same-window edge e1.
    """

    class AllSubgraphs(MiningAlgorithm):
        induced = EdgeInduced
        max_size = 3

        def filter(self, s):
            return len(s) <= 3

        def match(self, s):
            return len(s) >= 2

    def build_store(self):
        store = MultiVersionStore()
        store.add_edge(1, 3, ts=1)
        store.add_edge(1, 2, ts=2)
        store.add_edge(2, 3, ts=2)
        return store

    def test_mixed_edge_set_found_exactly_once(self):
        store = self.build_store()
        alg = self.AllSubgraphs()
        deltas = []
        for update in [EdgeUpdate(1, 2, True), EdgeUpdate(2, 3, True)]:
            explorer = Explorer(alg)
            deltas.extend(
                explorer.explore_update(ExplorationView(store, 2), update)
            )
        target = frozenset({(2, 3), (1, 3)})
        hits = [d for d in deltas if d.subgraph.edges == target]
        assert len(hits) == 1
        assert hits[0].is_new()
        # and nothing is duplicated overall
        collect_matches(
            [d for d in deltas]
        )

    def test_full_static_equivalence_on_this_graph(self):
        from oracles import brute_force_edge_induced

        store = self.build_store()
        alg = self.AllSubgraphs()
        deltas = []
        explorer = Explorer(alg)
        # window 1
        deltas.extend(
            explorer.explore_update(ExplorationView(store, 1), EdgeUpdate(1, 3, True))
        )
        for update in [EdgeUpdate(1, 2, True), EdgeUpdate(2, 3, True)]:
            deltas.extend(
                explorer.explore_update(ExplorationView(store, 2), update)
            )
        live = collect_matches(deltas)
        final = store.as_adjacency(2)
        assert live == brute_force_edge_induced(final, alg)

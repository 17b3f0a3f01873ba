"""Unit tests for the EXPLORE algorithm and change detection."""

from repro.apps import CliqueMining, PathMining
from repro.core.api import EdgeInduced, MiningAlgorithm
from repro.core.explore import Explorer
from repro.core.metrics import Metrics
from repro.graph.adjacency import AdjacencyGraph
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.types import EdgeUpdate, MatchStatus


def explore(store, ts, update, algorithm):
    return Explorer(algorithm).explore_update(ExplorationView(store, ts), update)


class TestTriangleCompletion:
    def test_closing_edge_finds_triangle(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 3, added=True), CliqueMining(3))
        triangles = [d for d in deltas if d.status is MatchStatus.NEW]
        assert len(triangles) == 1
        assert set(triangles[0].subgraph.vertices) == {1, 2, 3}

    def test_non_closing_edge_finds_nothing(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(3, 4, ts=2)
        deltas = explore(store, 2, EdgeUpdate(3, 4, added=True), CliqueMining(3))
        assert deltas == []

    def test_deletion_removes_triangle(self):
        store = MultiVersionStore()
        for u, v in [(1, 2), (2, 3), (1, 3)]:
            store.add_edge(u, v, ts=1)
        store.delete_edge(1, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 3, added=False), CliqueMining(3))
        assert len(deltas) == 1
        assert deltas[0].status is MatchStatus.REM
        assert set(deltas[0].subgraph.vertices) == {1, 2, 3}


class TestRemPlusNew:
    def test_path_becomes_triangle(self):
        """The paper's section 4.3 example: adding (1,3) to path 1-2-3 emits
        one REM (the path) and one NEW if both match — here with PathMining
        the path is REMoved and nothing NEW appears."""
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 3, added=True), PathMining(3))
        rems = [d for d in deltas if d.status is MatchStatus.REM]
        news = [d for d in deltas if d.status is MatchStatus.NEW]
        assert len(rems) == 1
        assert set(rems[0].subgraph.vertices) == {1, 2, 3}
        # the triangle is not a path; the new 2-vertex subgraphs are below
        # min_size; no NEW for the 3-set
        assert all(set(d.subgraph.vertices) != {1, 2, 3} for d in news)

    def test_same_vertex_set_rem_and_new(self):
        """4-cycle + chord: adding the chord REMs the 4-path and NEWs none,
        but with PathMining(4) subpaths shift around."""
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(3, 4, ts=1)
        store.add_edge(1, 4, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 4, added=True), PathMining(4))
        rem_sets = {frozenset(d.subgraph.vertices) for d in deltas if d.is_rem()}
        assert frozenset({1, 2, 3, 4}) in rem_sets  # path 1-2-3-4 destroyed


class TestEmittedSubgraphContent:
    def test_rem_carries_pre_edges(self):
        store = MultiVersionStore()
        for u, v in [(1, 2), (2, 3), (1, 3)]:
            store.add_edge(u, v, ts=1)
        store.delete_edge(2, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(2, 3, added=False), CliqueMining(3))
        rem = deltas[0]
        assert rem.subgraph.edges == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_new_carries_post_edges(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 3, added=True), CliqueMining(3))
        assert deltas[0].subgraph.edges == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_timestamp_stamped(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=7)
        deltas = explore(store, 7, EdgeUpdate(1, 3, added=True), CliqueMining(3))
        assert deltas[0].timestamp == 7


class TestSameWindowDedup:
    def test_triangle_added_in_one_window_found_once(self):
        """Paper section 4.4.3: all three edges in one snapshot — the match
        is found only from the lowest edge (1,2)."""
        store = MultiVersionStore()
        for u, v in [(1, 2), (1, 3), (2, 3)]:
            store.add_edge(u, v, ts=1)
        alg = CliqueMining(3)
        all_deltas = []
        for u, v in [(1, 2), (1, 3), (2, 3)]:
            all_deltas.extend(
                explore(store, 1, EdgeUpdate(u, v, added=True), alg)
            )
        assert len(all_deltas) == 1
        found = explore(store, 1, EdgeUpdate(1, 2, added=True), alg)
        assert len(found) == 1  # and specifically from the lowest edge

    def test_future_edges_invisible(self):
        """Section 4.4.2: the exploration at ts=1 cannot see the ts=2 edge."""
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        deltas = explore(store, 1, EdgeUpdate(1, 2, added=True), CliqueMining(3))
        assert all(set(d.subgraph.vertices) != {1, 2, 3} for d in deltas)


class TestBoundedness:
    def test_engine_enforces_max_size(self):
        """``max_size`` is the engine's bound, not a promise the filter must
        keep: an always-true filter terminates and never sees a subgraph
        larger than ``max_size``."""
        seen = []

        class Unbounded(MiningAlgorithm):
            max_size = 4

            def filter(self, s):
                seen.append(len(s))
                return True

            def match(self, s):
                return False

        store = MultiVersionStore()
        verts = list(range(14))
        for i in verts:
            for j in verts:
                if i < j:
                    store.add_edge(i, j, ts=1)
        metrics = Metrics()
        out = Explorer(Unbounded(), metrics=metrics).explore_update(
            ExplorationView(store, 1), EdgeUpdate(0, 1, added=True)
        )
        assert out == []
        assert max(seen) == 4
        # {0,1} plus every 1- and 2-subset of the other twelve vertices,
        # each grown in exactly one (canonical) order
        assert metrics.expansions == 12 + 12 * 11 // 2


class TestMetricsInstrumentation:
    def test_counters_advance(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        metrics = Metrics()
        explorer = Explorer(CliqueMining(3), metrics=metrics)
        explorer.explore_update(
            ExplorationView(store, 2), EdgeUpdate(1, 3, added=True)
        )
        assert metrics.filter_calls > 0
        assert metrics.can_expand_calls > 0
        assert metrics.emits == 1
        assert metrics.work_units() > 0


class TestEdgeInducedMode:
    class AllSubgraphs(MiningAlgorithm):
        induced = EdgeInduced
        max_size = 3

        def filter(self, s):
            return len(s) <= 3

        def match(self, s):
            return len(s) >= 2

    def test_edge_addition_emits_containing_subgraphs(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(2, 3, added=True), self.AllSubgraphs())
        edge_sets = {d.subgraph.edges for d in deltas if d.is_new()}
        # the new edge alone, and the path {12, 23}
        assert frozenset({(2, 3)}) in edge_sets
        assert frozenset({(1, 2), (2, 3)}) in edge_sets
        # every NEW contains the update edge
        assert all((2, 3) in es for es in edge_sets)

    def test_edge_deletion_emits_rems(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.delete_edge(2, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(2, 3, added=False), self.AllSubgraphs())
        assert all(d.is_rem() for d in deltas)
        assert {d.subgraph.edges for d in deltas} == {
            frozenset({(2, 3)}),
            frozenset({(1, 2), (2, 3)}),
        }

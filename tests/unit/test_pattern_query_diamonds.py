"""Unit tests for PatternQuery compilation, diamond and cycle mining."""

import itertools

import pytest

from repro.apps import CycleMining, DiamondMining, PatternQuery
from repro.baselines.static_engine import PatternMatcher
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.graph.pattern import Pattern
from repro.runtime.session import StreamingSession
from repro.types import Update

from oracles import brute_force_vertex_induced


class TestPatternQuery:
    @pytest.mark.parametrize(
        "pattern",
        [
            Pattern.clique(3),
            Pattern.clique(4),
            Pattern.path(3),
            Pattern.path(4),
            Pattern.cycle(4),
            Pattern.star(4),
        ],
    )
    def test_agrees_with_pattern_matcher(self, pattern):
        g = erdos_renyi(18, 45, seed=40)
        query = PatternQuery(pattern)
        live = collect_matches(TesseractEngine.run_static(g, query))
        expected = {
            frozenset(m.vertices)
            for m in PatternMatcher(pattern, induced=True).matches(g)
        }
        assert {frozenset(vs) for vs, _ in live} == expected

    def test_labeled_query_prunes_during_exploration(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        g.set_vertex_label(1, "a")
        g.set_vertex_label(2, "b")
        g.set_vertex_label(3, "b")
        labeled = PatternQuery(Pattern.clique(3, labels=["a", "b", "b"]))
        live = collect_matches(TesseractEngine.run_static(g, labeled))
        assert len(live) == 1
        wrong = PatternQuery(Pattern.clique(3, labels=["a", "a", "b"]))
        assert collect_matches(TesseractEngine.run_static(g, wrong)) == set()

    def test_incremental_query_on_evolving_graph(self):
        g = erdos_renyi(15, 35, seed=41)
        query = PatternQuery(Pattern.cycle(4))
        session = StreamingSession(query, window_size=3)
        count = session.output_stream().count()
        edges = shuffled_edges(g, seed=1)
        session.submit_many(Update.add_edge(u, v) for u, v in edges)
        session.flush()
        expected = PatternMatcher(Pattern.cycle(4), induced=True).count(g)
        assert count.value() == expected
        # deletions retract query matches too
        session.submit_many(Update.delete_edge(u, v) for u, v in edges[:10])
        session.flush()
        final = PatternMatcher(Pattern.cycle(4), induced=True).count(
            session.snapshot()
        )
        assert count.value() == final

    def test_filter_is_anti_monotone_on_samples(self):
        """Any subset of a passing vertex set also passes the filter."""
        g = erdos_renyi(14, 32, seed=42)
        query = PatternQuery(Pattern.clique(4))
        live = collect_matches(TesseractEngine.run_static(g, query))
        from repro.graph.bitset import BitMatrix
        from repro.graph.subgraph import SubgraphView

        for vs, _ in list(live)[:5]:
            for size in (2, 3):
                for sub in itertools.combinations(sorted(vs), size):
                    index = {v: i for i, v in enumerate(sub)}
                    m = BitMatrix.from_edges(
                        size,
                        (
                            (index[u], index[v])
                            for u, v in itertools.combinations(sub, 2)
                            if g.has_edge(u, v)
                        ),
                    )
                    view = SubgraphView(list(sub), m, [None] * size)
                    assert query.filter(view)


class TestDiamondMining:
    def test_single_diamond(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        live = collect_matches(TesseractEngine.run_static(g, DiamondMining()))
        assert {frozenset(vs) for vs, _ in live} == {frozenset({1, 2, 3, 4})}

    def test_k4_is_not_a_diamond(self, k4_graph):
        live = collect_matches(TesseractEngine.run_static(k4_graph, DiamondMining()))
        assert live == set()

    def test_matches_oracle(self):
        g = erdos_renyi(14, 35, seed=43)
        live = collect_matches(TesseractEngine.run_static(g, DiamondMining()))
        assert live == brute_force_vertex_induced(g, DiamondMining())

    def test_equals_pattern_query(self):
        g = erdos_renyi(16, 40, seed=44)
        diamond = Pattern(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        a = collect_matches(TesseractEngine.run_static(g, DiamondMining()))
        b = collect_matches(TesseractEngine.run_static(g, PatternQuery(diamond)))
        assert {vs for vs, _ in a} == {vs for vs, _ in b}


class TestCycleMining:
    def test_square(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4)])
        live = collect_matches(TesseractEngine.run_static(g, CycleMining(4)))
        assert {frozenset(vs) for vs, _ in live} == {frozenset({1, 2, 3, 4})}

    def test_chord_disqualifies(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
        live = collect_matches(TesseractEngine.run_static(g, CycleMining(4)))
        assert live == set()

    def test_triangle_is_a_3_cycle(self, triangle_graph):
        live = collect_matches(TesseractEngine.run_static(triangle_graph, CycleMining(3)))
        assert len(live) == 1

    def test_matches_oracle(self):
        g = erdos_renyi(13, 28, seed=45)
        for k in (3, 4, 5):
            alg = CycleMining(k)
            live = collect_matches(TesseractEngine.run_static(g, alg))
            assert live == brute_force_vertex_induced(g, alg), k

    def test_validation(self):
        with pytest.raises(ValueError):
            CycleMining(2)

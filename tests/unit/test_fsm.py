"""Unit tests for frequent subgraph mining (MNI support, thresholds)."""

import pytest

from repro.apps.fsm import (
    FSMPipeline,
    FrequentSubgraphMining,
    pattern_of,
)
from repro.core.engine import TesseractEngine
from repro.errors import AggregationError
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.canonical import automorphism_orbits, canonical_form
from repro.types import MatchDelta, MatchStatus, MatchSubgraph


def star_graph(spokes):
    """Hub 0 with labeled spokes: hub 'h', spokes 's'."""
    g = AdjacencyGraph()
    g.add_vertex(0, label="h")
    for i in range(1, spokes + 1):
        g.add_vertex(i, label="s")
        g.add_edge(0, i)
    return g


def run_fsm(graph, k=2, threshold=2, provider=None):
    alg = FrequentSubgraphMining(k)
    deltas = TesseractEngine.run_static(graph, alg)
    pipeline = FSMPipeline(threshold=threshold, snapshot_provider=provider)
    pipeline.consume(deltas)
    return pipeline


class TestMNISupport:
    def test_star_mni_is_one(self):
        """A star h-s has many embeddings but MNI support 1: every match
        maps the same hub vertex to the hub slot."""
        pipeline = run_fsm(star_graph(5), k=2, threshold=10)
        edge_hs = canonical_form(2, [(0, 1)], labels=["h", "s"])
        assert pipeline.support_of(edge_hs) == 1

    def test_disjoint_edges_full_support(self):
        g = AdjacencyGraph()
        for i in range(4):
            g.add_vertex(2 * i, label="a")
            g.add_vertex(2 * i + 1, label="b")
            g.add_edge(2 * i, 2 * i + 1)
        pipeline = run_fsm(g, k=2, threshold=100)
        edge_ab = canonical_form(2, [(0, 1)], labels=["a", "b"])
        assert pipeline.support_of(edge_ab) == 4

    def test_symmetric_pattern_pools_orbits(self):
        """Unlabeled edge pattern: both endpoints share one orbit, so a
        single edge gives support 2 (two distinct vertices in the orbit)."""
        g = AdjacencyGraph.from_edges([(1, 2)])
        pipeline = run_fsm(g, k=2, threshold=100)
        edge = canonical_form(2, [(0, 1)])
        assert pipeline.support_of(edge) == 2

    def test_rem_decrements_support(self):
        g = AdjacencyGraph()
        for i in range(3):
            g.add_vertex(2 * i, label="a")
            g.add_vertex(2 * i + 1, label="b")
            g.add_edge(2 * i, 2 * i + 1)
        alg = FrequentSubgraphMining(2)
        deltas = TesseractEngine.run_static(g, alg)
        pipeline = FSMPipeline(threshold=100)
        pipeline.consume(deltas)
        edge_ab = canonical_form(2, [(0, 1)], labels=["a", "b"])
        assert pipeline.support_of(edge_ab) == 3
        rem = MatchDelta(2, MatchStatus.REM, deltas[0].subgraph)
        pipeline.consume([rem])
        assert pipeline.support_of(edge_ab) == 2

    def test_retract_below_zero_raises(self):
        pipeline = FSMPipeline(threshold=2)
        sub = MatchSubgraph((1, 2), frozenset({(1, 2)}), ("a", "b"))
        with pytest.raises(AggregationError):
            pipeline.consume([MatchDelta(1, MatchStatus.REM, sub)])


class TestThresholds:
    def test_becomes_frequent_event(self):
        g = AdjacencyGraph()
        for i in range(3):
            g.add_vertex(2 * i, label="a")
            g.add_vertex(2 * i + 1, label="b")
            g.add_edge(2 * i, 2 * i + 1)
        pipeline = run_fsm(g, k=2, threshold=2, provider=lambda ts: g)
        kinds = [e.kind for e in pipeline.events]
        assert "became_frequent" in kinds
        assert pipeline.rematerializations >= 1

    def test_rematerialized_matches_emitted(self):
        g = AdjacencyGraph()
        for i in range(3):
            g.add_vertex(2 * i, label="a")
            g.add_vertex(2 * i + 1, label="b")
            g.add_edge(2 * i, 2 * i + 1)
        pipeline = run_fsm(g, k=2, threshold=3, provider=lambda ts: g)
        edge_ab = canonical_form(2, [(0, 1)], labels=["a", "b"])
        emitted_patterns = [pattern_of(d.subgraph)[0] for d in pipeline.emitted]
        # all 3 matches of the a-b edge pattern were emitted on crossing
        assert emitted_patterns.count(edge_ab) == 3

    def test_lost_support_event_without_enumeration(self):
        g = AdjacencyGraph()
        for i in range(2):
            g.add_vertex(2 * i, label="a")
            g.add_vertex(2 * i + 1, label="b")
            g.add_edge(2 * i, 2 * i + 1)
        alg = FrequentSubgraphMining(2)
        deltas = TesseractEngine.run_static(g, alg)
        pipeline = FSMPipeline(threshold=2, snapshot_provider=lambda ts: g)
        pipeline.consume(deltas)
        remat_before = pipeline.rematerializations
        rem = MatchDelta(2, MatchStatus.REM, deltas[0].subgraph)
        pipeline.consume([rem])
        assert any(e.kind == "lost_support" for e in pipeline.events)
        assert pipeline.rematerializations == remat_before

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            FSMPipeline(threshold=0)

    def test_frequent_patterns_listing(self):
        g = AdjacencyGraph()
        for i in range(3):
            g.add_vertex(2 * i, label="a")
            g.add_vertex(2 * i + 1, label="b")
            g.add_edge(2 * i, 2 * i + 1)
        pipeline = run_fsm(g, k=2, threshold=2)
        freq = pipeline.frequent_patterns()
        edge_ab = canonical_form(2, [(0, 1)], labels=["a", "b"])
        assert freq.get(edge_ab) == 3


class TestPatternOf:
    def test_mapping_covers_vertices(self):
        sub = MatchSubgraph(
            (5, 6, 7), frozenset({(5, 6), (6, 7)}), ("a", "b", "a")
        )
        form, mapping = pattern_of(sub)
        assert sorted(mapping) == [0, 1, 2]
        assert form.num_vertices == 3

    def test_algorithm_properties(self):
        alg = FrequentSubgraphMining(3)
        assert alg.name == "3-FSM"
        assert alg.induced.value == "edge"


class TestEdgeLabeledFSM:
    def build_mixed_graph(self):
        """Three strong a-b edges and two weak ones, disjoint pairs."""
        g = AdjacencyGraph()
        labels = ["s", "s", "s", "w", "w"]
        for i, elab in enumerate(labels):
            g.add_vertex(2 * i, label="a")
            g.add_vertex(2 * i + 1, label="b")
            g.add_edge(2 * i, 2 * i + 1, label=elab)
        return g

    def test_edge_labels_split_patterns(self):
        g = self.build_mixed_graph()
        alg = FrequentSubgraphMining(2, edge_labeled=True)
        deltas = TesseractEngine.run_static(g, alg)
        pipeline = FSMPipeline(threshold=3)
        pipeline.consume(deltas)
        supports = pipeline.all_supports()
        strong = [f for f in supports if f.edge_labels and f.edge_labels[0][1] == "s"]
        weak = [f for f in supports if f.edge_labels and f.edge_labels[0][1] == "w"]
        assert len(strong) == 1 and supports[strong[0]] == 3
        assert len(weak) == 1 and supports[weak[0]] == 2
        # only the strong variant crosses the threshold
        assert list(pipeline.frequent_patterns()) == strong

    def test_without_flag_patterns_merge(self):
        g = self.build_mixed_graph()
        alg = FrequentSubgraphMining(2)  # edge labels not loaded
        deltas = TesseractEngine.run_static(g, alg)
        pipeline = FSMPipeline(threshold=3)
        pipeline.consume(deltas)
        edge_forms = [f for f in pipeline.all_supports() if f.num_vertices == 2]
        assert len(edge_forms) == 1
        assert pipeline.all_supports()[edge_forms[0]] == 5

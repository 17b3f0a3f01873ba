"""Unit tests for the rebuilt baseline systems."""

import pytest

from repro.apps import CliqueMining, MotifCounting
from repro.baselines import (
    ArabesqueModel,
    DeltaBigJoin,
    FractalModel,
    Peregrine,
    PatternMatcher,
)
from repro.baselines.arabesque import ArabesqueOOM
from repro.baselines.static_engine import match_pattern
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.graph.pattern import Pattern

from oracles import brute_force_cliques


class TestPatternMatcher:
    def test_triangle_count(self, k4_graph):
        matcher = PatternMatcher(Pattern.clique(3))
        assert matcher.count(k4_graph) == 4

    def test_k4_found_once(self, k4_graph):
        matcher = PatternMatcher(Pattern.clique(4))
        assert matcher.count(k4_graph) == 1

    def test_against_brute_force(self):
        g = erdos_renyi(16, 50, seed=4)
        for k in (3, 4):
            matches = match_pattern(g, Pattern.clique(k))
            got = {frozenset(m.vertices) for m in matches}
            assert got == brute_force_cliques(g, k)

    def test_induced_vs_subiso_paths(self, triangle_graph):
        # A triangle contains no *induced* 3-path but three non-induced ones.
        induced = PatternMatcher(Pattern.path(3), induced=True)
        subiso = PatternMatcher(Pattern.path(3), induced=False)
        assert induced.count(triangle_graph) == 0
        assert subiso.count(triangle_graph) == 3

    def test_labels_respected(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3)])
        g.set_vertex_label(1, "a")
        g.set_vertex_label(2, "b")
        g.set_vertex_label(3, "a")
        p = Pattern(2, [(0, 1)], labels=["a", "b"])
        matcher = PatternMatcher(p, induced=False)
        got = {frozenset(m.vertices) for m in matcher.matches(g)}
        assert got == {frozenset({1, 2}), frozenset({2, 3})}

    def test_no_symmetry_breaking_overcounts(self, triangle_graph):
        plain = PatternMatcher(Pattern.clique(3), symmetry_breaking=False)
        assert plain.count(triangle_graph) == 6  # 3! automorphic copies

    def test_matches_materialize_edges(self, k4_graph):
        m = PatternMatcher(Pattern.clique(3)).matches(k4_graph)
        assert all(len(x.edges) == 3 for x in m)


class TestFractal:
    def test_matches_tesseract(self):
        g = erdos_renyi(15, 40, seed=1)
        alg = CliqueMining(4, min_size=3)
        fr = FractalModel(alg).run(g)
        expected = collect_matches(TesseractEngine.run_static(g, alg))
        assert collect_matches(fr.matches) == expected
        assert fr.wall_seconds > 0
        assert fr.num_tasks == g.num_edges()

    def test_master_bottleneck_limits_scaling(self):
        g = erdos_renyi(15, 40, seed=1)
        run = FractalModel(CliqueMining(4, min_size=3)).run(g)
        m1 = run.simulated_makespan(1)
        m8 = run.simulated_makespan(8)
        assert m8 < m1  # still scales...
        assert m1 / m8 < 8  # ...but sublinearly (master serialization)

    def test_evolving_means_recompute(self):
        """An evolving graph is one ``run`` per snapshot, each from scratch:
        every edge of the snapshot is a task, not just the increment."""
        g1 = erdos_renyi(10, 20, seed=2)
        g2 = erdos_renyi(10, 25, seed=2)
        model = FractalModel(CliqueMining(3))
        for g in (g1, g2):
            run = model.run(g)
            assert run.num_tasks == g.num_edges()
            expected = collect_matches(TesseractEngine.run_static(g, CliqueMining(3)))
            assert collect_matches(run.matches) == expected


class TestArabesque:
    def test_matches_tesseract(self):
        g = erdos_renyi(14, 35, seed=6)
        alg = CliqueMining(4, min_size=3)
        ar = ArabesqueModel(alg).run(g)
        expected = collect_matches(TesseractEngine.run_static(g, alg))
        assert collect_matches(ar.matches) == expected

    def test_oom_on_frontier_blowup(self):
        g = erdos_renyi(30, 200, seed=8)
        model = ArabesqueModel(MotifCounting(4), frontier_capacity=50)
        with pytest.raises(ArabesqueOOM):
            model.run(g)

    def test_peak_frontier_reported(self):
        g = erdos_renyi(12, 25, seed=3)
        run = ArabesqueModel(CliqueMining(3)).run(g)
        assert run.peak_frontier >= 1
        assert run.num_phases >= 1

    def test_bsp_scaling_among_distributed_sizes(self):
        """More machines help once shuffling is already being paid (1-machine
        Arabesque would be memory-bound instead, so it is not compared)."""
        g = erdos_renyi(14, 35, seed=6)
        run = ArabesqueModel(CliqueMining(4, min_size=3)).run(g)
        assert run.simulated_makespan(8) < run.simulated_makespan(2)


class TestPeregrine:
    def test_count_equals_materialize(self):
        g = erdos_renyi(15, 45, seed=9)
        pere = Peregrine.for_cliques(4)
        assert pere.count(g).total == len(Peregrine.for_cliques(4).materialize(g).matches)

    def test_motif_pattern_set(self):
        pere = Peregrine.for_motifs(4)
        assert len(pere.patterns) == 6

    def test_count_does_not_materialize(self):
        g = erdos_renyi(10, 20, seed=1)
        run = Peregrine.for_cliques(3).count(g)
        assert run.matches == []
        assert run.total >= 0

    def test_empty_patterns_rejected(self):
        with pytest.raises(ValueError):
            Peregrine([])

    def test_motif_counts_match_tesseract(self):
        from repro.apps import count_motifs

        g = erdos_renyi(12, 28, seed=5)
        deltas = TesseractEngine.run_static(g, MotifCounting(3, min_size=3))
        tess = count_motifs(deltas)
        pere = Peregrine.for_motifs(3).count(g)
        pere_by_form = {p.canonical(): n for p, n in pere.counts.items()}
        for form, n in tess.items():
            assert pere_by_form.get(form, 0) == n


class TestDeltaBigJoin:
    def test_stream_matches_static(self):
        g = erdos_renyi(14, 40, seed=12)
        dbj = DeltaBigJoin(Pattern.clique(3))
        deltas = dbj.process_stream([(e, True) for e in shuffled_edges(g, seed=3)])
        live = {frozenset(d.subgraph.vertices) for d in deltas if d.is_new()}
        assert live == brute_force_cliques(g, 3)

    def test_deletions_emit_rems(self):
        dbj = DeltaBigJoin(Pattern.clique(3))
        stream = [
            (((1, 2)), True),
            (((2, 3)), True),
            (((1, 3)), True),
            (((1, 3)), False),
        ]
        deltas = dbj.process_stream(stream)
        assert [d.status.value for d in deltas] == ["NEW", "REM"]

    def test_shuffle_bytes_accumulate(self):
        g = erdos_renyi(14, 40, seed=12)
        dbj = DeltaBigJoin(Pattern.clique(3))
        dbj.process_stream([(e, True) for e in g.sorted_edges()])
        assert dbj.stats.bytes_shuffled > 0
        assert dbj.stats.prefixes_extended > 0

    def test_post_filter_applied_after_materialization(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        g.set_vertex_label(1, "a")
        g.set_vertex_label(2, "a")
        g.set_vertex_label(3, "b")
        dbj = DeltaBigJoin(
            Pattern.clique(3),
            post_filter=lambda m: len(set(m.vertex_labels)) == 3,
        )
        deltas = dbj.process_stream(
            [(e, True) for e in g.sorted_edges()], initial=None
        )
        # structural match found (and paid for)...
        assert dbj.stats.matches_found == 1
        # ...but filtered in post-processing
        assert dbj.post_process(deltas) == []

    def test_duplicate_elimination_across_delta_queries(self):
        """A K4 closing edge participates in several pattern edges; each
        match must still be emitted exactly once."""
        dbj = DeltaBigJoin(Pattern.clique(3))
        stream = [((u, v), True) for u, v in
                  [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
        deltas = dbj.process_stream(stream)
        live = collect_matches(deltas)
        assert len(live) == 4  # the 4 triangles of K4

    def test_initial_graph_supported(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3)])
        dbj = DeltaBigJoin(Pattern.clique(3))
        deltas = dbj.process_stream([((1, 3), True)], initial=g)
        assert len(deltas) == 1
        assert deltas[0].is_new()

    def test_join_cost_grows_with_the_stream(self):
        g = erdos_renyi(14, 40, seed=12)
        dbj = DeltaBigJoin(Pattern.clique(4))
        edges = [(e, True) for e in g.sorted_edges()]
        half = len(edges) // 2
        dbj.process_stream(edges[:half])
        prefixes, shuffled = dbj.stats.prefixes_extended, dbj.stats.bytes_shuffled
        assert prefixes > 0 and shuffled > 0
        first = AdjacencyGraph.from_edges([e for e, _ in edges[:half]])
        dbj.process_stream(edges[half:], initial=first)
        assert dbj.stats.prefixes_extended > prefixes
        assert dbj.stats.bytes_shuffled > shuffled

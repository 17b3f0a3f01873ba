"""Property tests for labeled algorithms and label-update translation."""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import GraphKeywordSearch, LabeledCliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.adjacency import AdjacencyGraph
from repro.runtime.session import StreamingSession
from repro.types import Update

from oracles import brute_force_vertex_induced

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LABELS = ["red", "green", "blue", None]


@st.composite
def labeled_graphs(draw, max_vertices=8, max_edges=13):
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), max_size=max_edges, unique=True))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    g = AdjacencyGraph()
    for v in range(n):
        g.add_vertex(v)
        if labels[v] is not None:
            g.set_vertex_label(v, labels[v])
    for u, v in edges:
        g.add_edge(u, v)
    return g


class TestLabeledStaticEquivalence:
    @SETTINGS
    @given(labeled_graphs())
    def test_gks_matches_oracle(self, g):
        alg = GraphKeywordSearch(["red", "green"], k=4)
        live = collect_matches(TesseractEngine.run_static(g, alg))
        assert live == brute_force_vertex_induced(g, alg)

    @SETTINGS
    @given(labeled_graphs())
    def test_labeled_cliques_match_oracle(self, g):
        alg = LabeledCliqueMining(4, min_size=3)
        live = collect_matches(TesseractEngine.run_static(g, alg))
        assert live == brute_force_vertex_induced(g, alg)


class TestRelabelEquivalence:
    @SETTINGS
    @given(labeled_graphs(max_vertices=7, max_edges=10), st.data())
    def test_relabel_stream_converges_to_static(self, g, data):
        """After arbitrary vertex relabels, the accumulated delta stream
        nets to the static match set of the final labeled graph."""
        alg = GraphKeywordSearch(["red", "green"], k=3)
        session = StreamingSession(alg, window_size=2, initial_graph=g)
        vertices = sorted(g.vertices())
        num_relabels = data.draw(st.integers(min_value=1, max_value=4))
        for _ in range(num_relabels):
            v = data.draw(st.sampled_from(vertices))
            label = data.draw(st.sampled_from(["red", "green", "blue"]))
            session.submit(Update.set_vertex_label(v, label))
        session.flush()
        final = session.snapshot()
        expected = brute_force_vertex_induced(final, alg)
        # initial matches existed before the session started; add them in
        initial = collect_matches(TesseractEngine.run_static(g, alg))
        net = {}
        for key in initial:
            net[key] = 1
        for d in session.deltas():
            key = d.subgraph.identity
            net[key] = net.get(key, 0) + d.sign()
        live = {k for k, n in net.items() if n > 0}
        assert all(n in (0, 1) for n in net.values())
        assert live == expected

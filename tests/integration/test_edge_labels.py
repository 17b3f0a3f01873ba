"""Edge-labeled mining end to end: algorithms using edge labels."""

import pytest

from repro.core.api import MiningAlgorithm
from repro.core.engine import TesseractEngine, collect_matches
from repro.core.stesseract import STesseractEngine
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.subgraph import SubgraphView
from repro.runtime.session import StreamingSession
from repro.types import Update


class StrongTriangles(MiningAlgorithm):
    """Triangles whose three edges all carry the label 'strong'."""

    max_size = 3
    uses_edge_labels = True

    def filter(self, s: SubgraphView) -> bool:
        n = len(s)
        return n <= 3 and s.num_edges() == n * (n - 1) // 2

    def match(self, s: SubgraphView) -> bool:
        return len(s) == 3 and s.count_edge_label("strong") == 3


def labeled_triangle(strong_edges):
    g = AdjacencyGraph()
    for u, v in [(1, 2), (2, 3), (1, 3)]:
        g.add_edge(u, v, label="strong" if (u, v) in strong_edges else "weak")
    return g


class TestStaticEdgeLabels:
    def test_all_strong_matches(self):
        g = labeled_triangle({(1, 2), (2, 3), (1, 3)})
        live = collect_matches(TesseractEngine.run_static(g, StrongTriangles()))
        assert len(live) == 1

    def test_one_weak_edge_blocks(self):
        g = labeled_triangle({(1, 2), (2, 3)})
        live = collect_matches(TesseractEngine.run_static(g, StrongTriangles()))
        assert live == set()

    def test_stesseract_agrees(self):
        g = labeled_triangle({(1, 2), (2, 3), (1, 3)})
        a = collect_matches(TesseractEngine.run_static(g, StrongTriangles()))
        b = collect_matches(STesseractEngine(StrongTriangles()).run(g))
        assert a == b

    def test_emitted_match_carries_edge_labels(self):
        g = labeled_triangle({(1, 2), (2, 3), (1, 3)})
        deltas = TesseractEngine.run_static(g, StrongTriangles())
        match = deltas[0].subgraph
        assert match.edge_label_of(1, 2) == "strong"
        assert len(match.edge_labels) == 3


class TestEvolvingEdgeLabels:
    def test_edge_relabel_creates_match(self):
        g = labeled_triangle({(1, 2), (2, 3)})  # (1,3) is weak
        session = StreamingSession(StrongTriangles(), window_size=10, initial_graph=g)
        session.submit(Update.set_edge_label(1, 3, "strong"))
        session.flush()
        news = [d for d in session.deltas() if d.is_new()]
        assert len(news) == 1
        assert news[0].subgraph.edge_label_of(1, 3) == "strong"

    def test_edge_relabel_destroys_match(self):
        g = labeled_triangle({(1, 2), (2, 3), (1, 3)})
        session = StreamingSession(StrongTriangles(), window_size=10, initial_graph=g)
        session.submit(Update.set_edge_label(2, 3, "weak"))
        session.flush()
        rems = [d for d in session.deltas() if d.is_rem()]
        assert len(rems) == 1
        # the REM carries the OLD edge label
        assert rems[0].subgraph.edge_label_of(2, 3) == "strong"
        news = [d for d in session.deltas() if d.is_new()]
        assert news == []

    def test_added_labeled_edge(self):
        g = AdjacencyGraph()
        g.add_edge(1, 2, label="strong")
        g.add_edge(2, 3, label="strong")
        session = StreamingSession(StrongTriangles(), window_size=10, initial_graph=g)
        session.submit(Update.add_edge(1, 3, label="strong"))
        session.flush()
        assert sum(d.sign() for d in session.deltas()) == 1


class TestViewErrors:
    def test_edge_label_without_optin_raises(self):
        from repro.graph.bitset import BitMatrix

        view = SubgraphView([1, 2], BitMatrix.from_edges(2, iter([(0, 1)])))
        with pytest.raises(ValueError):
            view.edge_label(1, 2)

    def test_edge_label_of_absent_edge_is_none(self):
        from repro.graph.bitset import BitMatrix

        view = SubgraphView(
            [1, 2, 3],
            BitMatrix.from_edges(3, iter([(0, 1)])),
            edge_label_fn=lambda u, v: "x",
        )
        assert view.edge_label(1, 3) is None

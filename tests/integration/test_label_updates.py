"""Integration tests for vertex/edge label updates through the full stack.

The paper (section 4.1) treats label modification as deletion of the
associated edges followed by re-addition with the new label; these tests
verify that the resulting match-set transitions are correct end to end.
"""

from repro.apps import GraphKeywordSearch, LabeledCliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.adjacency import AdjacencyGraph
from repro.runtime.session import StreamingSession
from repro.types import Update


def live_by_net(deltas):
    """Net match multiset from a delta stream (tolerates REM+NEW cycles)."""
    net = {}
    for d in deltas:
        key = d.subgraph.identity
        net[key] = net.get(key, 0) + d.sign()
    return {k for k, v in net.items() if v > 0}


class TestVertexRelabel:
    def test_relabel_creates_match(self):
        """Recoloring a vertex completes a keyword-search pattern."""
        g = AdjacencyGraph.from_edges([(1, 2)])
        g.set_vertex_label(1, "x")
        g.set_vertex_label(2, "x")
        alg = GraphKeywordSearch(["x", "y"], k=3)
        session = StreamingSession(alg, window_size=10, initial_graph=g)
        session.submit(Update.set_vertex_label(2, "y"))
        session.flush()
        final_static = collect_matches(
            TesseractEngine.run_static(session.snapshot(), alg)
        )
        assert {tuple(sorted(vs)) for vs, _ in final_static} == {(1, 2)}
        # the session's delta stream must net to that same match
        assert live_by_net(session.deltas()) == final_static

    def test_relabel_destroys_match(self):
        g = AdjacencyGraph.from_edges([(1, 2)])
        g.set_vertex_label(1, "x")
        g.set_vertex_label(2, "y")
        alg = GraphKeywordSearch(["x", "y"], k=3)
        session = StreamingSession(alg, window_size=10, initial_graph=g)
        # matches exist initially; we only track deltas from here
        session.submit(Update.set_vertex_label(2, "x"))
        session.flush()
        deltas = session.deltas()
        rems = [d for d in deltas if d.is_rem()]
        assert len(rems) == 1
        assert set(rems[0].subgraph.vertices) == {1, 2}
        # the REM carries the OLD label
        assert rems[0].subgraph.label_of(2) == "y"

    def test_relabel_matches_static_recompute(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3), (3, 4)])
        for v, lab in [(1, "a"), (2, "b"), (3, "c"), (4, "a")]:
            g.set_vertex_label(v, lab)
        alg = LabeledCliqueMining(3, min_size=3)
        session = StreamingSession(alg, window_size=10, initial_graph=g)
        session.submit(Update.set_vertex_label(2, "a"))  # kills the abc clique
        session.flush()
        final_static = collect_matches(
            TesseractEngine.run_static(session.snapshot(), alg)
        )
        assert final_static == set()
        deltas = session.deltas()
        assert sum(d.sign() for d in deltas) == -1  # net one removed match


class TestEdgeRelabel:
    def test_edge_relabel_roundtrip(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        alg = LabeledCliqueMining(3, min_size=3)
        for v, lab in [(1, "a"), (2, "b"), (3, "c")]:
            g.set_vertex_label(v, lab)
        session = StreamingSession(alg, window_size=10, initial_graph=g)
        session.submit(Update.set_edge_label(1, 2, "strong"))
        session.flush()
        # the clique is REMed (edge deleted) and re-NEWed (edge re-added)
        deltas = session.deltas()
        assert sum(d.sign() for d in deltas) == 0
        assert any(d.is_rem() for d in deltas)
        assert any(d.is_new() for d in deltas)
        ts = session.store.latest_timestamp
        assert session.store.edge_label_at(1, 2, ts) == "strong"


class TestVertexDelete:
    def test_vertex_delete_removes_all_matches(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3), (2, 4), (3, 4), (2, 3)])
        from repro.apps import CliqueMining

        alg = CliqueMining(3, min_size=3)
        before = collect_matches(TesseractEngine.run_static(g, alg))
        session = StreamingSession(alg, window_size=10, initial_graph=g)
        session.submit(Update.delete_vertex(2))
        session.flush()
        final_static = collect_matches(
            TesseractEngine.run_static(session.snapshot(), alg)
        )
        rems = {d.subgraph.identity for d in session.deltas() if d.is_rem()}
        assert rems == before - final_static
        assert all(2 in vs for vs, _ in rems)

"""Edge cases and error-path coverage across modules."""

import pytest

from repro.errors import (
    InvalidUpdateError,
    OffsetError,
    QueueError,
    TesseractError,
    UnknownEdgeError,
    UnknownVertexError,
    WorkerCrashed,
)


class TestErrorHierarchy:
    def test_all_library_errors_are_tesseract_errors(self):
        for exc_type in (
            InvalidUpdateError,
            OffsetError,
            QueueError,
            UnknownVertexError,
            UnknownEdgeError,
        ):
            assert issubclass(exc_type, TesseractError)

    def test_unknown_vertex_is_also_keyerror(self):
        assert issubclass(UnknownVertexError, KeyError)
        err = UnknownVertexError(42)
        assert err.vertex == 42

    def test_unknown_edge_fields(self):
        err = UnknownEdgeError(1, 2)
        assert (err.src, err.dst) == (1, 2)

    def test_worker_crashed_fields(self):
        err = WorkerCrashed(3, 17)
        assert err.worker_id == 3 and err.task_offset == 17
        assert "worker 3" in str(err)


class TestEngineEdgeCases:
    def test_update_with_no_neighbors(self):
        from repro.apps import CliqueMining
        from repro.core.engine import TesseractEngine
        from repro.store.mvstore import MultiVersionStore
        from repro.types import EdgeUpdate

        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        engine = TesseractEngine(store, CliqueMining(3, min_size=3))
        assert engine.process_update(1, EdgeUpdate(1, 2, added=True)) == []

    def test_two_vertex_match_emitted_at_root(self):
        """The initial 2-vertex subgraph itself can be a match."""
        from repro.apps import CliqueMining
        from repro.core.engine import TesseractEngine
        from repro.graph.adjacency import AdjacencyGraph
        from repro.core.engine import collect_matches

        g = AdjacencyGraph.from_edges([(1, 2)])
        live = collect_matches(
            TesseractEngine.run_static(g, CliqueMining(3, min_size=2))
        )
        assert live == {(frozenset({1, 2}), frozenset({(1, 2)}))}

    def test_isolated_vertices_never_explored(self):
        from repro.apps import CliqueMining
        from repro.core.engine import TesseractEngine
        from repro.graph.adjacency import AdjacencyGraph

        g = AdjacencyGraph()
        for v in range(5):
            g.add_vertex(v)
        assert TesseractEngine.run_static(g, CliqueMining(3)) == []

    def test_empty_algorithm_explores_nothing(self):
        from repro.core.api import EmptyAlgorithm
        from repro.core.engine import TesseractEngine
        from repro.core.metrics import Metrics
        from repro.graph.generators import erdos_renyi

        metrics = Metrics()
        g = erdos_renyi(10, 20, seed=80)
        deltas = TesseractEngine.run_static(g, EmptyAlgorithm(), metrics=metrics)
        assert deltas == []
        assert metrics.expansions == 0


class TestStoreEdgeCases:
    def test_vertex_with_no_record_queries(self):
        from repro.store.mvstore import MultiVersionStore

        s = MultiVersionStore()
        assert s.neighbors_at(99, 5) == []
        assert s.union_neighbors_at(99, 5) == []
        assert not s.edge_alive_at(99, 98, 5)
        assert not s.edge_updated_at(99, 98, 5)
        assert s.edge_label_at(99, 98, 5) is None
        assert s.neighbor_states_at(99, 5) == {}

    def test_degree_at(self):
        from repro.store.mvstore import MultiVersionStore

        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.add_edge(1, 3, ts=2)
        assert s.degree_at(1, 1) == 1
        assert s.degree_at(1, 2) == 2

    def test_snapshot_view_label_queries(self):
        from repro.store.mvstore import MultiVersionStore
        from repro.store.snapshot import SnapshotView

        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1, label="x")
        view = SnapshotView(s, 1)
        assert view.edge_label(1, 2) == "x"
        assert view.has_vertex(1)
        assert not view.has_vertex(9)


class TestSubgraphViewEdgeCases:
    def test_unknown_vertex_slot_raises(self):
        from repro.graph.bitset import BitMatrix
        from repro.graph.subgraph import SubgraphView

        view = SubgraphView([1, 2], BitMatrix([0, 0]))
        with pytest.raises(KeyError):
            view.degree(9)

    def test_repr(self):
        from repro.graph.bitset import BitMatrix
        from repro.graph.subgraph import SubgraphView

        view = SubgraphView([1, 2], BitMatrix.from_edges(2, iter([(0, 1)])))
        assert "1" in repr(view)


class TestSessionEdgeCases:
    def test_store_and_initial_graph_conflict(self):
        from repro.apps import CliqueMining
        from repro.graph.adjacency import AdjacencyGraph
        from repro.runtime.session import StreamingSession
        from repro.store.mvstore import MultiVersionStore

        with pytest.raises(ValueError):
            StreamingSession(
                CliqueMining(3),
                initial_graph=AdjacencyGraph(),
                store=MultiVersionStore(),
            )

    def test_checkpoint_restore_roundtrip(self, tmp_path):
        from repro.apps import CliqueMining
        from repro.core.engine import collect_matches
        from repro.runtime.session import StreamingSession
        from repro.store.checkpoint import checkpoint_store, restore_store
        from repro.types import Update

        session = StreamingSession(CliqueMining(3, min_size=3), window_size=2)
        for u, v in [(1, 2), (2, 3)]:
            session.submit(Update.add_edge(u, v))
        session.flush()
        path = tmp_path / "c.json"
        checkpoint_store(session.store, path)
        recovered = StreamingSession(
            CliqueMining(3, min_size=3), window_size=2, store=restore_store(path)
        )
        recovered.submit(Update.add_edge(1, 3))
        recovered.flush()
        live = collect_matches(recovered.deltas())
        assert {vs for vs, _ in live} == {frozenset({1, 2, 3})}

    def test_flush_without_updates(self):
        from repro.apps import CliqueMining
        from repro.runtime.session import StreamingSession

        session = StreamingSession(CliqueMining(3))
        session.flush()  # no-op, no crash
        assert session.deltas() == []

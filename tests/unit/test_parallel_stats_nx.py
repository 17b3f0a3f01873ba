"""Unit tests for the process backend, session stats, and nx interop."""

import pytest

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.generators import erdos_renyi
from repro.runtime.backend import ProcessBackend
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.types import EdgeUpdate, Update


def build_static_tasks(graph):
    store = MultiVersionStore.from_adjacency(graph, ts=1)
    tasks = [
        (1, EdgeUpdate(u, v, added=True)) for u, v in graph.sorted_edges()
    ]
    return store, tasks


class TestProcessBackend:
    def test_matches_serial_output_exactly(self):
        g = erdos_renyi(20, 55, seed=60)
        store, tasks = build_static_tasks(g)
        backend = ProcessBackend(store, CliqueMining(3, min_size=3), num_processes=2)
        parallel = backend.run_tasks(tasks)
        serial = TesseractEngine.run_static(g, CliqueMining(3, min_size=3))
        key = lambda d: (d.timestamp, d.status.value, d.subgraph.vertices)
        assert [key(d) for d in parallel] == [key(d) for d in serial]

    def test_single_process_fallback(self):
        g = erdos_renyi(10, 20, seed=61)
        store, tasks = build_static_tasks(g)
        backend = ProcessBackend(store, CliqueMining(3, min_size=3), num_processes=1)
        live = collect_matches(backend.run_tasks(tasks))
        expected = collect_matches(
            TesseractEngine.run_static(g, CliqueMining(3, min_size=3))
        )
        assert live == expected

    def test_small_batches_run_inline(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        backend = ProcessBackend(store, CliqueMining(3), num_processes=4)
        assert backend.run_tasks([(1, EdgeUpdate(1, 2, added=True))]) == []

    def test_empty(self):
        backend = ProcessBackend(MultiVersionStore(), CliqueMining(3))
        assert backend.run_tasks([]) == []


class TestSystemStats:
    def test_collect_and_report(self):
        g = erdos_renyi(12, 28, seed=63)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=4)
        session.submit_many(Update.add_edge(u, v) for u, v in g.sorted_edges())
        session.flush()
        stats = session.stats()
        assert stats.store_edges == g.num_edges()
        assert stats.queue_acked == stats.queue_appended == g.num_edges()
        assert stats.low_watermark == session.store.latest_timestamp
        assert stats.deltas_published == len(session.deltas()) == stats.emits
        assert stats.worker_crashes == 0
        report = stats.report()
        assert "windows" in report and "tombstones" in report

    def test_dropped_updates_counted(self):
        session = StreamingSession(CliqueMining(3), window_size=2)
        session.submit(Update.add_edge(1, 2))
        session.submit(Update.add_edge(1, 2))  # duplicate
        session.flush()
        assert session.stats().updates_dropped == 1


class TestNetworkxInterop:
    def test_roundtrip(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3)])
        g.set_vertex_label(1, "red")
        g.add_edge(3, 4, label="strong")
        nxg = g.to_networkx()
        assert nxg.number_of_edges() == 3
        assert nxg.nodes[1]["label"] == "red"
        back = AdjacencyGraph.from_networkx(nxg)
        assert sorted(back.edges()) == sorted(g.edges())
        assert back.vertex_label(1) == "red"
        assert back.edge_label(3, 4) == "strong"

    def test_triangle_count_agrees_with_networkx(self):
        import networkx as nx

        g = erdos_renyi(25, 80, seed=64)
        ours = collect_matches(
            TesseractEngine.run_static(g, CliqueMining(3, min_size=3))
        )
        triangles = sum(nx.triangles(g.to_networkx()).values()) // 3
        assert len({vs for vs, _ in ours if len(vs) == 3}) == triangles

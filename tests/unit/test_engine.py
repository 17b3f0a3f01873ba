"""Unit tests for the single-worker engine and delta replay validation."""

import pytest

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.adjacency import AdjacencyGraph
from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import Window
from repro.streaming.queue import WorkQueue
from repro.types import EdgeUpdate, MatchDelta, MatchStatus, MatchSubgraph


class TestStaticRun:
    def test_triangle(self, triangle_graph):
        deltas = TesseractEngine.run_static(triangle_graph, CliqueMining(3))
        assert len(deltas) == 1
        assert all(d.is_new() for d in deltas)

    def test_k4_contains_all_cliques(self, k4_graph):
        deltas = TesseractEngine.run_static(k4_graph, CliqueMining(4, min_size=3))
        sets = sorted(tuple(sorted(d.subgraph.vertices)) for d in deltas)
        # 4 triangles + 1 four-clique
        assert len(sets) == 5
        assert (1, 2, 3, 4) in sets

    def test_empty_graph(self):
        deltas = TesseractEngine.run_static(AdjacencyGraph(), CliqueMining(3))
        assert deltas == []

    def test_no_duplicates(self, random_graph):
        deltas = TesseractEngine.run_static(random_graph, CliqueMining(4, min_size=3))
        identities = [d.subgraph.identity for d in deltas]
        assert len(identities) == len(set(identities))


class TestWindowProcessing:
    def test_process_window_returns_its_deltas(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        engine = TesseractEngine(store, CliqueMining(3))
        deltas = engine.process_window(
            Window(timestamp=2, updates=[EdgeUpdate(1, 3, added=True)])
        )
        assert [(d.timestamp, d.status) for d in deltas] == [(2, MatchStatus.NEW)]
        assert engine.metrics.emits == 1

    def test_drain_queue_acks_everything(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        queue = WorkQueue()
        queue.append(1, EdgeUpdate(1, 2, added=True))
        engine = TesseractEngine(store, CliqueMining(3))
        engine.drain_queue(queue)
        assert queue.is_drained()

    @staticmethod
    def _traced_triangle(store):
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        engine = TesseractEngine(store, CliqueMining(3), trace_tasks=True)
        engine.process_update(2, EdgeUpdate(1, 3, added=True))
        assert len(engine.traces) == 1
        trace = engine.traces[0]
        assert trace.work > 0
        assert trace.num_deltas == 1
        return set(trace.touched_vertices)

    def test_trace_tasks(self):
        """``touched_vertices`` is the records the task read.  Vertex 2 is
        in the triangle but is a leaf, never expanded: only its label would
        be read, and on a store where no vertex has a label that read does
        not happen."""
        assert self._traced_triangle(MultiVersionStore()) == {1, 3}

    def test_trace_tasks_on_a_labelled_store(self):
        """One label anywhere in the store and the leaf's label is read."""
        store = MultiVersionStore()
        store.set_vertex_label(9, 1, "x")
        assert self._traced_triangle(store) == {1, 2, 3}


class TestCollectMatches:
    def _delta(self, status, vertices, edges):
        return MatchDelta(
            1, status, MatchSubgraph(tuple(vertices), frozenset(edges))
        )

    def test_new_then_rem(self):
        d1 = self._delta(MatchStatus.NEW, (1, 2), {(1, 2)})
        d2 = self._delta(MatchStatus.REM, (2, 1), {(1, 2)})
        assert collect_matches([d1, d2]) == set()

    def test_duplicate_new_rejected(self):
        d = self._delta(MatchStatus.NEW, (1, 2), {(1, 2)})
        with pytest.raises(ValueError):
            collect_matches([d, d])

    def test_rem_of_unknown_rejected(self):
        d = self._delta(MatchStatus.REM, (1, 2), {(1, 2)})
        with pytest.raises(ValueError):
            collect_matches([d])

    def test_live_set(self):
        a = self._delta(MatchStatus.NEW, (1, 2), {(1, 2)})
        b = self._delta(MatchStatus.NEW, (2, 3), {(2, 3)})
        live = collect_matches([a, b])
        assert len(live) == 2

"""Unit tests for the single-worker engine and delta replay validation."""

import pytest

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.adjacency import AdjacencyGraph
from repro.store.mvstore import MultiVersionStore
from repro.store.remote import RemoteStoreClient
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
    @staticmethod
    def _run_queue(engine, queue):
        """The queue's windows through ``engine``, task by task; also the
        acked count as each window's body ends."""
        deltas, acked = [], []
        for ts, items in queue.drain_windows():
            for item in items:
                deltas.extend(engine.process_update(ts, item.update))
            acked.append(queue.acked_count())
        return deltas, acked

    def test_a_queued_window_returns_its_deltas(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        queue = WorkQueue()
        queue.append_window(2, [EdgeUpdate(1, 3, added=True)])
        engine = TesseractEngine(store, CliqueMining(3))
        deltas, _ = self._run_queue(engine, queue)
        assert [(d.timestamp, d.status) for d in deltas] == [(2, MatchStatus.NEW)]
        assert engine.metrics.emits == 1

    def test_a_window_is_acked_only_after_it_ran(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=2)
        queue = WorkQueue()
        queue.append(1, EdgeUpdate(1, 2, added=True))
        queue.append(2, EdgeUpdate(2, 3, added=True))
        engine = TesseractEngine(store, CliqueMining(3))
        _, acked = self._run_queue(engine, queue)
        # while a window's body runs, only the windows before it are acked
        assert acked == [0, 1]
        assert queue.is_drained()

    @staticmethod
    def _fetched_by_triangle_task(store):
        """The records one task fetches through a store client."""
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        client = RemoteStoreClient(store)
        engine = TesseractEngine(client, CliqueMining(3))
        assert len(engine.process_update(2, EdgeUpdate(1, 3, added=True))) == 1
        assert client.log.fetches == len(client._cache)
        return set(client._cache)

    def test_task_fetches_only_the_records_it_reads(self):
        """Vertex 2 is in the triangle but is a leaf, never expanded: only
        its label would be read, and on a store where no vertex has a label
        that read does not happen."""
        assert self._fetched_by_triangle_task(MultiVersionStore()) == {1, 3}

    def test_task_fetches_the_leaf_on_a_labelled_store(self):
        """One label anywhere in the store and the leaf's label is read."""
        store = MultiVersionStore()
        store.set_vertex_label(9, 1, "x")
        assert self._fetched_by_triangle_task(store) == {1, 2, 3}


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

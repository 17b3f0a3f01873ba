"""Unit tests for the disaggregated-store client."""

import pytest

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.core.explore import Explorer
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.store.remote import FetchCosts, RemoteStoreClient
from repro.store.snapshot import ExplorationView
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import EdgeUpdate, Update


def build(seed=0):
    g = erdos_renyi(14, 35, seed=seed)
    store = MultiVersionStore()
    queue = WorkQueue()
    ingress = IngressNode(store, queue, window_size=4)
    ingress.submit_many(Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=1))
    ingress.flush()
    return g, store, queue


class TestTransparency:
    def test_engine_output_identical_through_client(self):
        g, store, queue = build()
        direct_engine = TesseractEngine(store, CliqueMining(3, min_size=3))
        direct = []
        tasks = [(ts, u) for ts, updates in queue.drain_windows() for u in updates]
        for ts, update in tasks:
            direct.extend(direct_engine.process_update(ts, update))

        client = RemoteStoreClient(store)
        explorer = Explorer(CliqueMining(3, min_size=3))
        remote = []
        for ts, update in tasks:
            remote.extend(explorer.explore_update(ExplorationView(client, ts), update))
        key = lambda d: (d.timestamp, d.status.value, d.subgraph.vertices)
        assert sorted(map(key, direct)) == sorted(map(key, remote))
        assert client.log.fetches > 0

    def test_drop_cache_preserves_correctness(self):
        g, store, queue = build(seed=3)
        client = RemoteStoreClient(store)
        explorer = Explorer(CliqueMining(3, min_size=3))
        deltas = []
        count = 0
        for ts, updates in queue.drain_windows():
            for update in updates:
                deltas.extend(
                    explorer.explore_update(ExplorationView(client, ts), update)
                )
                count += 1
                if count % 5 == 0:
                    client.drop_cache()  # worker restart
        live = collect_matches(sorted(deltas, key=lambda d: d.timestamp))
        expected = collect_matches(
            TesseractEngine.run_static(
                store.as_adjacency(store.latest_timestamp), CliqueMining(3, min_size=3)
            )
        )
        assert live == expected


class TestAccounting:
    def test_repeat_access_hits_cache(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        client = RemoteStoreClient(store)
        client.neighbors_at(1, 1)
        fetches = client.log.fetches
        client.neighbors_at(1, 1)
        client.edge_alive_at(1, 2, 1)
        assert client.log.fetches == fetches  # all cache hits

    def test_latency_accumulates(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(1, 3, ts=1)
        costs = FetchCosts(round_trip=1.0, per_edge=0.5)
        client = RemoteStoreClient(store, costs=costs)
        client.neighbors_at(1, 1)
        assert client.log.simulated_seconds == pytest.approx(1.0 + 2 * 0.5)

    def test_shard_accounting(self):
        store = MultiVersionStore(num_shards=4)
        for v in range(2, 12):
            store.add_edge(1, v, ts=1)
        client = RemoteStoreClient(store)
        for v in range(1, 12):
            client.neighbors_at(v, 1)
        assert sum(client.access_stats.per_shard.values()) == client.log.fetches == 11
        assert store.access_stats.total == 11  # charged to the backing store

    @pytest.mark.parametrize("kind", ["remote", "net"])
    def test_session_fetches_reach_the_report(self, kind):
        """Every held fetch is charged to a shard, so the run report's
        shard-skew line counts the fetches the session made."""
        session = StreamingSession(
            CliqueMining(3, min_size=3), store=kind, window_size=2, profile=True
        )
        try:
            session.process(
                Update.add_edge(u, v) for u, v in [(0, 1), (1, 2), (0, 2), (2, 3)]
            )
            fetches = session.store.log.fetches
            assert session.store.store_stats()["access_total"] == fetches > 0
            assert f"({fetches} fetches)" in session.run_report().render()
        finally:
            session.close()

    def test_cache_capacity_evicts(self):
        store = MultiVersionStore()
        for v in range(2, 8):
            store.add_edge(1, v, ts=1)
        client = RemoteStoreClient(store, cache_capacity=2)
        for v in range(2, 8):
            client.neighbors_at(v, 1)
        first = client.log.fetches
        client.neighbors_at(2, 1)  # long evicted
        assert client.log.fetches == first + 1

    def test_missing_vertex_fetch(self):
        client = RemoteStoreClient(MultiVersionStore())
        assert client.neighbors_at(42, 1) == []
        assert client.log.fetches == 1

    def test_labels_and_directions_via_client(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1, label="x", direction="fwd")
        client = RemoteStoreClient(store)
        assert client.edge_label_at(1, 2, 1) == "x"
        assert client.edge_direction_at(1, 2, 1) == "fwd"
        assert client.vertex_label_at(1, 1) is None

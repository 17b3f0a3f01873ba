"""Unit tests for the storage-layer additions: protocol registry, delta
index, sharded store, and reclaim stats."""

import abc

import pytest

from repro.errors import GraphStoreError
from repro.graph.adjacency import AdjacencyGraph
from repro.store import (
    DeltaIndex,
    GraphStore,
    MultiVersionStore,
    RemoteStoreClient,
    ShardedStore,
    STORE_NAMES,
    checkpoint_store,
    make_store,
    restore_store,
)
from repro.store.mvstore import EdgeInterval, VertexRecord
from repro.streaming.ingress import IngressNode
from repro.types import Update


def diamond_graph():
    g = AdjacencyGraph()
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)]:
        g.add_edge(u, v)
    return g


class TestMakeStore:
    def test_kinds_and_registry(self):
        for kind in STORE_NAMES:
            store = make_store(kind)
            assert isinstance(store, GraphStore)
            assert store.kind == kind
        assert isinstance(make_store("mv"), MultiVersionStore)
        assert isinstance(make_store("sharded"), ShardedStore)
        assert isinstance(make_store("remote"), RemoteStoreClient)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown store"):
            make_store("mongodb")

    @pytest.mark.parametrize("kind", ["mv", "sharded"])
    def test_cache_size_refused_on_an_in_process_store(self, kind):
        with pytest.raises(ValueError, match="cache_size= only applies"):
            make_store(kind, cache_size=8)

    def test_graph_preload(self):
        for kind in STORE_NAMES:
            store = make_store(kind, graph=diamond_graph(), num_shards=4)
            assert store.num_edges_at(1) == 5
            assert store.shards.num_shards == 4


class Delegating(GraphStore):
    """A ``GraphStore`` proxy that forwards the protocol and, through
    ``__getattr__``, every public name outside it."""

    def __init__(self, inner):
        self._inner = inner

    @property
    def latest_timestamp(self):
        return self._inner.latest_timestamp

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


def _forward(name):
    return lambda self, *args, **kw: getattr(self._inner, name)(*args, **kw)


for _name in sorted(GraphStore.__abstractmethods__ - {"latest_timestamp"}):
    setattr(Delegating, _name, _forward(_name))
Delegating.apply_edge_updates = _forward("apply_edge_updates")
abc.update_abstractmethods(Delegating)


class TestReadAheadIsACapability:
    """``prefetch`` is looked up by name on the one store with reads to
    batch (``net``) and is deliberately not a ``GraphStore`` method.  A
    default on the ABC would be inherited by every proxy that subclasses
    it, such as the end-to-end benchmark's ``TimedStore``, and would shadow
    the ``__getattr__`` that forwards ``prefetch`` to a ``NetStoreClient``:
    traced benchmark runs would then silently measure the unbatched path.
    """

    def test_only_the_net_client_has_prefetch(self):
        assert not hasattr(GraphStore, "prefetch")
        for kind in ("mv", "sharded", "remote"):
            assert not hasattr(make_store(kind), "prefetch")
        client = make_store("net")
        try:
            assert callable(client.prefetch)
        finally:
            client.close()

    def test_a_delegating_proxy_reaches_the_net_clients_prefetch(self):
        client = make_store("net")
        try:
            proxy = Delegating(client)
            assert proxy.prefetch == client.prefetch
            ingress = IngressNode(proxy, window_size=4)
            ingress.submit_many(Update.add_edge(u, u + 1) for u in range(0, 8, 2))
            ingress.flush()
            assert client.net_log.per_op.get("get_record", 0) == 0
            assert client.net_log.per_op["multi_get"] == 1
            assert client.edge_alive_at(6, 7, ingress.next_timestamp - 1)
        finally:
            client.close()


class TestDeltaIndex:
    def test_note_probe_discard(self):
        idx = DeltaIndex()
        idx.note(3, (1, 2), True)
        idx.note(3, (2, 4), False)
        idx.note(5, (1, 2), False)
        assert idx.updated_at((1, 2), 3)
        assert idx.updated_at((1, 2), 5)
        assert not idx.updated_at((1, 2), 4)
        assert idx.keys_in(3) == {(1, 2): True, (2, 4): False}
        assert idx.size() == 3
        assert idx.discard(3, (1, 2)) == 1
        assert idx.discard(3, (1, 2)) == 0  # idempotent
        assert not idx.updated_at((1, 2), 3)
        assert idx.size() == 2

    def test_keys_in_is_a_copy(self):
        idx = DeltaIndex()
        idx.note(1, (1, 2), True)
        idx.keys_in(1)[(9, 9)] = True
        assert idx.keys_in(1) == {(1, 2): True}

    def test_items_sorted(self):
        idx = DeltaIndex()
        idx.note(2, (3, 4), False)
        idx.note(1, (1, 2), True)
        idx.note(2, (1, 5), True)
        assert list(idx.items()) == [
            (1, (1, 2), True),
            (2, (1, 5), True),
            (2, (3, 4), False),
        ]


class TestShardedStore:
    def test_records_land_on_their_shard(self):
        store = ShardedStore(num_shards=4)
        for v in range(20):
            store.ensure_vertex(v)
        assert sum(store.shard_sizes()) == 20
        for v in range(20):
            shard = store.shards.shard_of(v)
            assert v in store._shard_records[shard]

    def test_store_stats_report_shard_extremes(self):
        store = ShardedStore.from_adjacency(diamond_graph(), num_shards=2)
        stats = store.store_stats()
        assert stats["kind"] == "sharded"
        assert stats["shard_max_records"] >= stats["shard_min_records"]
        assert stats["shard_max_records"] + stats["shard_min_records"] == 4


class TestReadPath:
    @pytest.mark.parametrize("kind", STORE_NAMES)
    def test_a_write_at_the_current_ts_is_read_back(self, kind):
        store = make_store(kind)
        try:
            store.add_edge(1, 2, 1)
            assert store.neighbor_states_at(1, 1) == {2: (False, True)}
            # bulk loads write many updates at one ts: a read between
            # them must not hide the later ones
            store.add_edge(1, 3, 1)
            assert store.neighbor_states_at(1, 1) == {
                2: (False, True),
                3: (False, True),
            }
        finally:
            store.close()

    def test_delta_index_matches_interval_scan(self):
        indexed = MultiVersionStore()
        scanning = MultiVersionStore(delta_index=False)
        script = [(1, 2, 1, True), (2, 3, 1, True), (1, 2, 2, False), (1, 2, 3, True)]
        for u, v, ts, added in script:
            for s in (indexed, scanning):
                (s.add_edge if added else s.delete_edge)(u, v, ts)
        for ts in range(1, 4):
            for u, v in [(1, 2), (2, 3), (1, 3)]:
                assert indexed.edge_updated_at(u, v, ts) == scanning.edge_updated_at(
                    u, v, ts
                )
            assert indexed.updated_keys_in(ts) == scanning.updated_keys_in(ts)


class TestReclaimStats:
    def test_reclaim_reports_per_shard_and_index(self):
        store = MultiVersionStore(num_shards=2)
        store.add_edge(1, 2, 1)
        store.add_edge(3, 4, 1)
        store.delete_edge(1, 2, 2)
        store.delete_edge(3, 4, 2)
        stats = store.reclaim(2)
        assert stats.horizon == 2
        assert stats.reclaimed == 2
        assert sum(stats.per_shard.values()) == 2
        assert stats.index_pruned == 4  # add + delete fact per dead version
        assert store.tombstone_count() == 0
        assert store.store_stats()["delta_entries"] == 0

    @staticmethod
    def churned(kind):
        """Diamond at ts 1; (1, 2) deleted at 2, (2, 3) at 3, (1, 2)
        re-added at 4 and (3, 4) deleted at 5."""
        store = make_store(kind, graph=diamond_graph())
        store.delete_edge(1, 2, 2)
        store.delete_edge(2, 3, 3)
        store.add_edge(1, 2, 4)
        store.delete_edge(3, 4, 5)
        return store

    @pytest.mark.parametrize("kind", STORE_NAMES)
    def test_reclaim_counts_each_dead_version_once(self, kind):
        store = self.churned(kind)
        live = {ts: sorted(store.edges_at(ts)) for ts in (3, 4, 5)}
        stats = store.reclaim(3)
        assert stats.horizon == 3 and stats.reclaimed == 2
        assert {ts: sorted(store.edges_at(ts)) for ts in (3, 4, 5)} == live
        assert store.reclaim(3).reclaimed == 0
        store.close()

    @pytest.mark.parametrize("kind", STORE_NAMES)
    def test_reclaim_spares_versions_deleted_after_the_horizon(self, kind):
        store = self.churned(kind)
        assert store.reclaim(4).reclaimed == 2
        assert store.edge_alive_at(3, 4, 4) and not store.edge_alive_at(3, 4, 5)
        assert store.edge_alive_at(1, 2, 4)
        assert store.reclaim(5).reclaimed == 1
        assert not store.edge_alive_at(3, 4, 5)
        assert sorted(store.edges_at(5)) == [(1, 2), (1, 3), (1, 4)]
        store.close()

    def test_remote_reclaim_drops_client_cache(self):
        client = make_store("remote", graph=diamond_graph())
        client.neighbors_at(1, 1)
        assert client.log.fetches == 1
        client.delete_edge(1, 2, 2)
        client.reclaim(2)
        client.neighbors_at(1, 2)
        assert client.log.fetches == 2  # re-fetched after reclaim


class TestCheckpointKinds:
    def test_roundtrip_preserves_kind(self, tmp_path):
        for kind in STORE_NAMES:
            store = make_store(kind, graph=diamond_graph())
            store.delete_edge(1, 2, 2)
            path = tmp_path / f"{kind}.ckpt"
            checkpoint_store(store, path)
            restored = restore_store(path)
            assert restored.kind == kind
            assert restored.latest_timestamp == 2
            assert sorted(restored.edges_at(2)) == sorted(store.edges_at(2))
            # restored stores keep evolving and keep index agreement
            restored.add_edge(1, 2, 3)
            assert restored.edge_updated_at(1, 2, 3)
            assert restored.edge_updated_at(1, 2, 2)  # replayed delete fact

    def test_pre_kind_checkpoints_restore_as_mv(self):
        from repro.store.checkpoint import store_from_dict, store_to_dict

        doc = store_to_dict(make_store("sharded", graph=diamond_graph()))
        doc.pop("kind")
        assert store_from_dict(doc).kind == "mv"

    def test_bad_format_rejected(self):
        from repro.store.checkpoint import store_from_dict

        with pytest.raises(GraphStoreError):
            store_from_dict({"format": 99})


class TestDeleteAfterPutRecord:
    """Records installed by ``put_record`` need not share interval objects
    (a wire bulk load or a ``net``-kind restore decodes each endpoint on
    its own); ``delete_edge`` must still tombstone both endpoints."""

    @staticmethod
    def unshared(kind):
        store = make_store(kind)
        store.put_record(1, VertexRecord(edges={2: [EdgeInterval(added_ts=1)]}))
        store.put_record(2, VertexRecord(edges={1: [EdgeInterval(added_ts=1)]}))
        store.set_latest_timestamp(1)
        return store

    @pytest.mark.parametrize("kind", STORE_NAMES)
    def test_delete_tombstones_both_endpoints(self, kind):
        store = self.unshared(kind)
        store.delete_edge(1, 2, 2)
        assert not store.edge_alive_at(1, 2, 2)
        assert not store.edge_alive_at(2, 1, 2)
        assert store.neighbor_states_at(1, 2) == {2: (True, False)}
        assert store.neighbor_states_at(2, 2) == {1: (True, False)}
        store.close()

    def test_delete_from_the_other_endpoint_and_re_add(self):
        store = self.unshared("mv")
        store.delete_edge(2, 1, 2)
        assert not store.edge_alive_at(1, 2, 2) and not store.edge_alive_at(2, 1, 2)
        store.add_edge(1, 2, 3)
        assert store.edge_alive_at(1, 2, 3) and store.edge_alive_at(2, 1, 3)
        assert store.reclaim(2).reclaimed == 1
        assert store.neighbor_states_at(2, 3) == {1: (False, True)}

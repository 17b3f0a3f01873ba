"""Unit tests for the multiversioned graph store."""

import pytest

from repro.errors import InvalidUpdateError, UnknownVertexError
from repro.graph.adjacency import AdjacencyGraph
from repro.store.api import make_store
from repro.store.mvstore import (
    EdgeInterval,
    MultiVersionStore,
    VertexRecord,
    apply_edge_write,
)
from repro.types import EdgeUpdate
from repro.store.snapshot import ExplorationView, SnapshotView


class TestEdgeIntervals:
    def test_alive_window(self):
        iv = EdgeInterval(added_ts=2, deleted_ts=5)
        assert not iv.alive_at(1)
        assert iv.alive_at(2)
        assert iv.alive_at(4)
        assert not iv.alive_at(5)

    def test_open_interval(self):
        iv = EdgeInterval(added_ts=3)
        assert iv.alive_at(100)
        assert not iv.alive_at(2)

    def test_updated_at(self):
        iv = EdgeInterval(added_ts=2, deleted_ts=5)
        assert iv.updated_at(2) and iv.updated_at(5)
        assert not iv.updated_at(3)


class TestApplyEdgeWrite:
    """The update -> record patch the fetch-boundary clients write through."""

    def test_add_appends_and_delete_tombstones(self):
        edges = {}
        assert apply_edge_write(edges, 2, 1, True, "a", "fwd")
        assert edges == {2: [EdgeInterval(1, None, "a", "fwd")]}
        assert apply_edge_write(edges, 2, 3, False)
        assert apply_edge_write(edges, 2, 4, True)
        assert edges == {2: [EdgeInterval(1, 3, "a", "fwd"), EdgeInterval(4)]}

    def test_matches_what_the_store_does_to_its_own_record(self):
        store = MultiVersionStore()
        copy = {}
        for ts, added in enumerate([True, False, True, False], start=1):
            if added:
                store.add_edge(1, 2, ts, label="x", direction="rev")
            else:
                store.delete_edge(2, 1, ts)
            assert apply_edge_write(copy, 2, ts, added, "x", "rev")
            assert copy == store.get_record(1).edges

    @pytest.mark.parametrize(
        "versions, ts, added",
        [
            ([EdgeInterval(1)], 2, True),  # add over a live interval
            ([EdgeInterval(1, 2)], 2, True),  # re-add in the deleting window
            ([], 2, False),  # nothing to tombstone
            ([EdgeInterval(1, 2)], 3, False),  # already dead
            ([EdgeInterval(2)], 2, False),  # added in this very window
        ],
    )
    def test_a_copy_the_update_does_not_fit_is_left_alone(self, versions, ts, added):
        """Every one of these the store itself rejects, so an acknowledged
        update that hits one means the copy is not the store's record."""
        edges = {2: list(versions)} if versions else {}
        before = {k: list(v) for k, v in edges.items()}
        assert apply_edge_write(edges, 2, ts, added) is False
        assert edges == before


class TestWrites:
    def test_add_and_query(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        assert s.edge_alive_at(1, 2, 1)
        assert s.edge_alive_at(2, 1, 1)  # symmetric
        assert not s.edge_alive_at(1, 2, 0)

    def test_duplicate_add_rejected(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        with pytest.raises(InvalidUpdateError):
            s.add_edge(1, 2, ts=2)

    def test_delete_then_readd(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.delete_edge(1, 2, ts=3)
        s.add_edge(1, 2, ts=5)
        assert s.edge_alive_at(1, 2, 1)
        assert s.edge_alive_at(1, 2, 2)
        assert not s.edge_alive_at(1, 2, 3)
        assert not s.edge_alive_at(1, 2, 4)
        assert s.edge_alive_at(1, 2, 5)

    def test_delete_missing_rejected(self):
        s = MultiVersionStore()
        with pytest.raises(InvalidUpdateError):
            s.delete_edge(1, 2, ts=1)

    def test_same_window_delete_readd_rejected(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.delete_edge(1, 2, ts=2)
        with pytest.raises(InvalidUpdateError):
            s.add_edge(1, 2, ts=2)

    def test_same_window_add_delete_rejected(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=2)
        with pytest.raises(InvalidUpdateError):
            s.delete_edge(1, 2, ts=2)

    def test_out_of_order_rejected(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=5)
        with pytest.raises(InvalidUpdateError):
            s.add_edge(2, 3, ts=4)

    def test_ts_zero_rejected(self):
        with pytest.raises(InvalidUpdateError):
            MultiVersionStore().add_edge(1, 2, ts=0)

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidUpdateError):
            MultiVersionStore().add_edge(1, 1, ts=1)


class TestWindowWrites:
    """``apply_edge_updates`` is the window form of ``add_edge`` / ``delete_edge``."""

    WINDOWS = {
        1: [EdgeUpdate(1, 2, True, label="x"), EdgeUpdate(2, 3, True, direction="rev")],
        2: [EdgeUpdate(1, 2, False), EdgeUpdate(3, 4, True)],
        4: [EdgeUpdate(1, 2, True, label="y"), EdgeUpdate(2, 3, False)],
    }

    @staticmethod
    def one_by_one(store, ts, updates):
        for upd in updates:
            if upd.added:
                store.add_edge(upd.u, upd.v, ts, label=upd.label, direction=upd.direction)
            else:
                store.delete_edge(upd.u, upd.v, ts)

    @staticmethod
    def state(store):
        return (
            sorted(store.iter_records()),
            {ts: store.updated_keys_in(ts) for ts in range(0, 6)},
            store.latest_timestamp,
            store.store_stats()["delta_entries"],
        )

    @pytest.mark.parametrize("kind", ["mv", "sharded"])
    def test_equals_the_per_update_calls(self, kind):
        windowed, looped = make_store(kind), make_store(kind)
        for ts, updates in self.WINDOWS.items():
            windowed.apply_edge_updates(ts, updates)
            self.one_by_one(looped, ts, updates)
            assert self.state(windowed) == self.state(looped)

    @pytest.mark.parametrize("kind", ["mv", "sharded"])
    def test_a_rejected_update_leaves_what_the_loop_would(self, kind):
        bad = [EdgeUpdate(5, 6, True), EdgeUpdate(1, 2, True), EdgeUpdate(6, 7, True)]
        windowed, looped = make_store(kind), make_store(kind)
        for store, apply in (
            (windowed, windowed.apply_edge_updates),
            (looped, lambda ts, updates: self.one_by_one(looped, ts, updates)),
        ):
            apply(1, self.WINDOWS[1])
            with pytest.raises(InvalidUpdateError, match=r"edge \(1, 2\) already exists"):
                apply(3, bad)
            # the update before the bad one landed and moved the clock
            assert store.edge_alive_at(5, 6, 3) and not store.has_vertex(7)
            assert store.latest_timestamp == 3
            with pytest.raises(InvalidUpdateError, match="timestamp order"):
                apply(2, [EdgeUpdate(8, 9, True)])
            assert not store.has_vertex(8)
        assert self.state(windowed) == self.state(looped)

    def test_an_empty_window_is_zero_writes(self):
        s = MultiVersionStore()
        s.apply_edge_updates(1, self.WINDOWS[1])
        s.apply_edge_updates(7, [])
        assert s.latest_timestamp == 1
        assert s.store_stats()["delta_entries"] == 2


class TestLabels:
    def test_label_history(self):
        s = MultiVersionStore()
        s.set_vertex_label(1, ts=1, label="a")
        s.set_vertex_label(1, ts=3, label="b")
        assert s.vertex_label_at(1, 0) is None
        assert s.vertex_label_at(1, 1) == "a"
        assert s.vertex_label_at(1, 2) == "a"
        assert s.vertex_label_at(1, 3) == "b"

    def test_same_ts_label_overwrites(self):
        s = MultiVersionStore()
        s.set_vertex_label(1, ts=1, label="a")
        s.set_vertex_label(1, ts=1, label="b")
        assert s.vertex_label_at(1, 1) == "b"

    def test_edge_label(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1, label="friend")
        assert s.edge_label_at(1, 2, 1) == "friend"
        assert s.edge_label_at(1, 2, 0) is None

    def test_unknown_vertex_label_is_none(self):
        assert MultiVersionStore().vertex_label_at(9, 5) is None


class TestReads:
    def test_neighbors_at(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.add_edge(1, 3, ts=2)
        s.delete_edge(1, 2, ts=3)
        assert s.neighbors_at(1, 1) == [2]
        assert s.neighbors_at(1, 2) == [2, 3]
        assert s.neighbors_at(1, 3) == [3]

    def test_union_neighbors_include_just_deleted(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.delete_edge(1, 2, ts=2)
        assert s.neighbors_at(1, 2) == []
        assert s.union_neighbors_at(1, 2) == [2]
        assert s.union_neighbors_at(1, 3) == []

    def test_edges_at(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.add_edge(2, 3, ts=1)
        s.delete_edge(1, 2, ts=2)
        assert sorted(s.edges_at(1)) == [(1, 2), (2, 3)]
        assert sorted(s.edges_at(2)) == [(2, 3)]
        assert s.num_edges_at(2) == 1

    def test_edge_updated_at(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.delete_edge(1, 2, ts=4)
        assert s.edge_updated_at(1, 2, 1)
        assert s.edge_updated_at(1, 2, 4)
        assert not s.edge_updated_at(1, 2, 2)

    @pytest.mark.parametrize("kind", ["mv", "sharded"])
    def test_edge_alive_at_agrees_with_the_interval_scan(self, kind):
        """The newest-version shortcut answers what scanning every version does."""
        s = make_store(kind)
        writes = {
            1: [(1, 2, True), (4, 5, True), (4, 6, True)],
            2: [(1, 3, True), (4, 5, False), (4, 6, False)],
            3: [(1, 2, False)],
            4: [(1, 3, False)],  # (1, 3): one tombstoned version
            5: [(1, 2, True)],
            6: [(4, 5, True)],
            7: [(1, 2, False)],
            8: [(4, 5, False)],
            9: [(1, 2, True)],  # (1, 2): re-added twice, alive now
        }
        for ts, updates in writes.items():
            s.apply_edge_updates(ts, [EdgeUpdate(u, v, added) for u, v, added in updates])
        # version lists emptied by put_record
        s.put_record(7, VertexRecord(edges={8: []}))
        s.put_record(8, VertexRecord(edges={7: []}))

        def scan(u, v, ts):
            rec = s.get_record(u)
            return rec is not None and any(
                iv.alive_at(ts) for iv in rec.edges.get(v, ())
            )

        pairs = [(1, 2), (1, 3), (4, 5), (4, 6), (7, 8), (1, 4), (99, 1)]
        pairs += [(v, u) for u, v in pairs]

        def check():
            for u, v in pairs:
                for ts in range(0, 12):
                    assert s.edge_alive_at(u, v, ts) == scan(u, v, ts), (u, v, ts)

        check()
        assert [s.edge_alive_at(1, 2, ts) for ts in range(1, 11)] == [
            True, True, False, False, True, True, False, False, True, True,
        ]  # fmt: skip
        # reclaimed: (4, 6) loses its only version, (1, 2) and (4, 5) their oldest
        assert s.reclaim(3).reclaimed == 3
        assert 6 not in s.get_record(4).edges
        check()

    def test_fetch_record_accounting(self):
        s = MultiVersionStore(num_shards=4)
        s.add_edge(1, 2, ts=1)
        s.fetch_record(1)
        s.fetch_record(1)
        assert s.access_stats.total == 2
        with pytest.raises(UnknownVertexError):
            s.fetch_record(99)


class TestBulkLoad:
    def test_from_adjacency_roundtrip(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        g.set_vertex_label(1, "x")
        s = MultiVersionStore.from_adjacency(g, ts=1)
        back = s.as_adjacency(1)
        assert sorted(back.edges()) == sorted(g.edges())
        assert back.vertex_label(1) == "x"

    def test_snapshot_zero_is_empty(self):
        g = AdjacencyGraph.from_edges([(1, 2)])
        s = MultiVersionStore.from_adjacency(g, ts=1)
        assert list(s.edges_at(0)) == []


class TestMaintenance:
    def test_tombstone_count(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.add_edge(1, 3, ts=1)
        s.delete_edge(1, 2, ts=2)
        assert s.tombstone_count() == 1

    def test_gc_reclaims_dead_versions(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.delete_edge(1, 2, ts=2)
        s.add_edge(3, 4, ts=3)
        s.delete_edge(3, 4, ts=4)
        reclaimed = s.reclaim(2).reclaimed
        assert reclaimed == 1
        assert not s.edge_alive_at(1, 2, 1)  # history gone
        assert s.edge_alive_at(3, 4, 3)  # deleted after horizon: kept

    def test_gc_keeps_alive_edges(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        assert s.reclaim(10).reclaimed == 0
        assert s.edge_alive_at(1, 2, 10)

    def test_memory_items(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        assert s.memory_items() == 2  # one interval on each endpoint


class TestViews:
    def test_snapshot_view(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.add_edge(2, 3, ts=2)
        v1 = SnapshotView(s, 1)
        assert v1.neighbors(2) == [1]
        assert not v1.has_edge(2, 3)
        v2 = SnapshotView(s, 2)
        assert v2.neighbors(2) == [1, 3]
        assert v2.degree(2) == 2

    def test_exploration_view_pre_post(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.delete_edge(1, 2, ts=2)
        s.add_edge(1, 3, ts=2)
        view = ExplorationView(s, 2)
        assert view.alive_pre(1, 2) and not view.alive_post(1, 2)
        assert not view.alive_pre(1, 3) and view.alive_post(1, 3)
        assert sorted(view.neighbors(1)) == [2, 3]
        assert view.updated_in_window(1, 2)
        assert view.updated_in_window(1, 3)

    def test_exploration_view_ts_validation(self):
        with pytest.raises(ValueError):
            ExplorationView(MultiVersionStore(), 0)

    def test_view_recorder(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        touched = set()
        view = ExplorationView(s, 1, recorder=touched)
        view.neighbors(1)
        view.alive_post(2, 1)
        assert touched == {1, 2}

    def test_update_edge_state_probes_and_records_the_touch(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.delete_edge(1, 2, ts=2)
        s.add_edge(1, 3, ts=2)
        touched = set()
        view = ExplorationView(s, 2, recorder=touched)
        assert view.update_edge_state(1, 2) == view.edge_state(1, 2) == (True, False)
        assert view.update_edge_state(3, 1) == (False, True)
        assert view.update_edge_state(2, 3) == (False, False)
        assert touched == {1, 2, 3}

    def test_view_labels_pre_post(self):
        s = MultiVersionStore()
        s.add_edge(1, 2, ts=1)
        s.set_vertex_label(1, ts=2, label="new")
        view = ExplorationView(s, 2)
        assert view.vertex_label(1, pre=True) is None
        assert view.vertex_label(1) == "new"

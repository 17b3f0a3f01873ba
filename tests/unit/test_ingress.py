"""Unit tests for the ingress node: sanitization, windowing, translation."""

import pytest

from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import Update


def make_ingress(window_size=2):
    store = MultiVersionStore()
    queue = WorkQueue()
    return store, queue, IngressNode(store, queue, window_size=window_size)


class TestWindowing:
    def test_window_closes_at_size(self):
        store, queue, ing = make_ingress(window_size=2)
        ing.submit(Update.add_edge(1, 2))
        assert queue.total_appended() == 0
        ing.submit(Update.add_edge(3, 4))
        assert queue.total_appended() == 2
        assert ing.windows_applied == 1

    def test_updates_share_window_timestamp(self):
        store, queue, ing = make_ingress(window_size=3)
        for e in [(1, 2), (3, 4), (5, 6)]:
            ing.submit(Update.add_edge(*e))
        items = [queue.poll() for _ in range(3)]
        assert {i.timestamp for i in items} == {1}

    def test_flush_closes_partial_window(self):
        store, queue, ing = make_ingress(window_size=100)
        ing.submit(Update.add_edge(1, 2))
        ing.flush()
        assert queue.total_appended() == 1
        assert store.edge_alive_at(1, 2, 1)

    def test_timestamps_increase_per_window(self):
        store, queue, ing = make_ingress(window_size=1)
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.add_edge(3, 4))
        offsets = [queue.poll().timestamp for _ in range(2)]
        assert offsets == [1, 2]

    def test_window_size_validation(self):
        with pytest.raises(ValueError):
            IngressNode(MultiVersionStore(), window_size=0)


class TestSanitization:
    def test_duplicate_add_dropped(self):
        store, queue, ing = make_ingress(window_size=1)
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.add_edge(1, 2))
        ing.flush()
        assert queue.total_appended() == 1
        assert ing.updates_dropped == 1

    def test_duplicate_add_within_window_dropped(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.add_edge(2, 1))
        ing.flush()
        assert queue.total_appended() == 1

    def test_delete_of_missing_dropped(self):
        store, queue, ing = make_ingress(window_size=1)
        ing.submit(Update.delete_edge(1, 2))
        ing.flush()
        assert queue.total_appended() == 0
        assert ing.updates_dropped == 1

    def test_add_then_delete_same_window_cancels(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.delete_edge(1, 2))
        ing.flush()
        assert queue.total_appended() == 0
        assert not store.edge_alive_at(1, 2, 1)

    def test_delete_then_add_spans_two_windows(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2))
        ing.flush()  # edge exists at ts=1
        ing.submit(Update.delete_edge(1, 2))
        ing.submit(Update.add_edge(1, 2))
        ing.flush()
        assert not store.edge_alive_at(1, 2, 2)  # deleted in window 2
        assert store.edge_alive_at(1, 2, 3)  # re-added in window 3

    def test_delete_cancels_deferred_readd(self):
        """delete, add, delete in one window leaves the edge deleted."""
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2))
        ing.flush()
        ing.submit(Update.delete_edge(1, 2))
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.delete_edge(1, 2))
        ing.flush()
        assert not store.edge_alive_at(1, 2, store.latest_timestamp)

    def test_add_after_deferred_readd_dropped(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2))
        ing.flush()
        ing.submit(Update.delete_edge(1, 2))
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.add_edge(1, 2))  # duplicate of the deferred re-add
        ing.flush()
        assert store.edge_alive_at(1, 2, store.latest_timestamp)
        assert store.tombstone_count() == 1


class TestDeferredOrder:
    """``_deferred`` is keyed by edge but ordered like the list it replaced."""

    def test_hub_relabel_readds_every_edge_once_in_key_order(self):
        """Relabelling a degree-d vertex defers d re-adds, probing before each."""
        degree = 2000
        store, queue, ing = make_ingress(window_size=100)
        # spokes on both sides of the hub id, each with its own edge label
        spokes = [v for v in range(degree + 1) if v != 1000]
        for v in spokes:
            ing.submit(Update.add_edge(1000, v, label=f"l{v}"))
        ing.flush()
        loaded, accepted = ing.windows_applied, ing.updates_accepted

        ing.submit(Update.set_vertex_label(1000, "hub"))

        # two windows regardless of the size limit: deletes + label, re-adds
        assert ing.windows_applied == loaded + 2
        items = [item for item in iter(queue.poll, None) if item.timestamp > loaded]
        deletes, readds = items[:degree], items[degree:]
        keys = sorted((min(1000, v), max(1000, v)) for v in spokes)
        assert [(i.timestamp, i.update.key, i.update.added) for i in deletes] == [
            (loaded + 1, key, False) for key in keys
        ]
        assert [
            (i.timestamp, i.update.key, i.update.added, i.update.label) for i in readds
        ] == [
            (loaded + 2, key, True, f"l{key[0] if key[1] == 1000 else key[1]}")
            for key in keys
        ]
        assert ing.updates_accepted == accepted + 2 * degree
        assert ing.updates_dropped == 0
        assert store.vertex_label_at(1000, loaded + 1) == "hub"

    def test_relabel_in_place_keeps_position_and_cancel_removes(self):
        """What a list gave: replace at the found index, ``del`` at it, else append."""
        store, queue, ing = make_ingress(window_size=100)
        edges = [(1, 2), (3, 4), (5, 6), (7, 8)]
        for u, v in edges:
            ing.submit(Update.add_edge(u, v, label="old"))
        ing.flush()

        def deferred():
            return [(u.src, u.dst, u.label) for u in ing._deferred.values()]

        for u, v in edges[:3]:
            ing.submit(Update.set_edge_label(u, v, "new"))
        assert deferred() == [(1, 2, "new"), (3, 4, "new"), (5, 6, "new")]
        ing.submit(Update.set_edge_label(1, 2, "newer"))  # in place, not re-queued
        assert deferred() == [(1, 2, "newer"), (3, 4, "new"), (5, 6, "new")]
        ing.submit(Update.delete_edge(3, 4))  # cancels that re-add
        assert deferred() == [(1, 2, "newer"), (5, 6, "new")]
        ing.submit(Update.add_edge(5, 6, label="dup"))  # already being re-added
        ing.submit(Update.set_edge_label(7, 8, "new"))  # appended last
        assert deferred() == [(1, 2, "newer"), (5, 6, "new"), (7, 8, "new")]
        dropped = ing.updates_dropped
        ing.flush()
        assert ing.updates_dropped == dropped
        ts = store.latest_timestamp
        assert [store.edge_label_at(u, v, ts) for u, v in edges] == [
            "newer", None, "new", "new",
        ]  # fmt: skip
        assert not store.edge_alive_at(3, 4, ts)


class TestVertexUpdates:
    def test_add_vertex_with_label(self):
        store, queue, ing = make_ingress(window_size=1)
        ing.submit(Update.add_vertex(7, label="x"))
        ing.submit(Update.add_edge(7, 8))
        ing.flush()
        assert store.has_vertex(7)
        assert store.vertex_label_at(7, store.latest_timestamp) == "x"

    def test_delete_vertex_deletes_incident_edges(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.add_edge(1, 3))
        ing.flush()
        ing.submit(Update.delete_vertex(1))
        ing.flush()
        ts = store.latest_timestamp
        assert not store.edge_alive_at(1, 2, ts)
        assert not store.edge_alive_at(1, 3, ts)

    def test_delete_unknown_vertex_dropped(self):
        store, queue, ing = make_ingress(window_size=1)
        ing.submit(Update.delete_vertex(42))
        assert ing.updates_dropped == 1


class TestLabelUpdates:
    def test_vertex_relabel_deletes_and_readds_edges(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.add_edge(1, 3))
        ing.flush()  # ts=1
        ing.submit(Update.set_vertex_label(1, "red"))
        ing.flush()  # delete window ts=2, re-add window ts=3
        assert not store.edge_alive_at(1, 2, 2)
        assert store.edge_alive_at(1, 2, 3)
        assert store.edge_alive_at(1, 3, 3)
        assert store.vertex_label_at(1, 2) == "red"

    def test_edge_relabel(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2, label="old"))
        ing.flush()
        ing.submit(Update.set_edge_label(1, 2, "new"))
        ing.flush()
        ts = store.latest_timestamp
        assert store.edge_label_at(1, 2, ts) == "new"
        assert store.edge_label_at(1, 2, 1) == "old"

    def test_edge_relabel_missing_dropped(self):
        store, queue, ing = make_ingress(window_size=1)
        ing.submit(Update.set_edge_label(1, 2, "x"))
        assert ing.updates_dropped == 1

    def test_relabel_isolated_vertex(self):
        store, queue, ing = make_ingress(window_size=1)
        ing.submit(Update.add_vertex(5))
        ing.submit(Update.set_vertex_label(5, "z"))
        ing.flush()
        assert store.vertex_label_at(5, store.latest_timestamp) == "z"


class TestGC:
    def test_gc_runs_when_enabled(self):
        store = MultiVersionStore()
        queue = WorkQueue()
        ing = IngressNode(store, queue, window_size=1, gc_enabled=True)
        ing.submit(Update.add_edge(1, 2))
        item = queue.poll()
        queue.ack(item.offset)
        ing.submit(Update.delete_edge(1, 2))
        item = queue.poll()
        queue.ack(item.offset)
        # Next window triggers GC with watermark at the delete's ts.
        ing.submit(Update.add_edge(3, 4))
        assert ing.gc_reclaimed >= 1


class TestTimeWindows:
    def test_window_closes_on_time(self):
        clock = {"now": 0.0}
        store = MultiVersionStore()
        ingress = IngressNode(
            store,
            window_size=1000,
            window_seconds=5.0,
            clock=lambda: clock["now"],
        )
        ingress.submit(Update.add_edge(1, 2))
        assert ingress.windows_applied == 0
        clock["now"] = 6.0
        ingress.submit(Update.add_edge(2, 3))
        assert ingress.windows_applied == 1  # time limit hit
        assert store.edge_alive_at(1, 2, 1)

    def test_size_limit_still_applies(self):
        clock = {"now": 0.0}
        store = MultiVersionStore()
        ingress = IngressNode(
            store, window_size=2, window_seconds=100.0, clock=lambda: clock["now"]
        )
        ingress.submit(Update.add_edge(1, 2))
        ingress.submit(Update.add_edge(2, 3))
        assert ingress.windows_applied == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            IngressNode(MultiVersionStore(), window_seconds=0)

    def test_explicit_close_window(self):
        store = MultiVersionStore()
        ingress = IngressNode(store, window_size=1000)
        assert not ingress.close_window()  # nothing buffered
        ingress.submit(Update.add_edge(1, 2))
        assert ingress.close_window()
        assert store.edge_alive_at(1, 2, 1)
        assert not ingress.close_window()

    def test_timer_resets_per_window(self):
        clock = {"now": 0.0}
        store = MultiVersionStore()
        ingress = IngressNode(
            store, window_size=1000, window_seconds=5.0, clock=lambda: clock["now"]
        )
        ingress.submit(Update.add_edge(1, 2))
        clock["now"] = 6.0
        ingress.submit(Update.add_edge(2, 3))  # closes window 1
        clock["now"] = 8.0
        ingress.submit(Update.add_edge(3, 4))  # only 2s into window 2
        assert ingress.windows_applied == 1

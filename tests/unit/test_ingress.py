"""Unit tests for the ingress node: sanitization, windowing, translation."""

import pytest
from hypothesis.stateful import run_state_machine_as_test

from repro.apps import FeedForwardLoops
from repro.core.api import VertexInduced
from repro.core.engine import collect_matches
from repro.errors import InvalidUpdateError
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.telemetry import Telemetry
from repro.types import Update
from scenarios import (
    IngressMachine,
    ReadsEverything,
    NetIngressMachine,
    machine_settings,
    readded_arc_windows,
)


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

    def test_rejected_update_is_not_counted_submitted(self):
        """An update sanitisation rejects mid-chunk is neither accepted,
        dropped nor submitted, and the chunk's rest is not submitted."""
        session = StreamingSession(
            FeedForwardLoops(), window_size=10, telemetry=Telemetry()
        )
        unknown = Update("unknown", 3)  # an update of no known kind
        with pytest.raises(InvalidUpdateError):
            session.submit_many([Update.add_edge(1, 2), unknown, Update.add_edge(4, 5)])
        totals = session.collect_registry().counter_totals()
        session.close()
        assert totals["repro_ingress_updates_accepted_total"] == 1
        assert totals["repro_ingress_updates_dropped_total"] == 0
        assert totals["repro_ingress_updates_submitted_total"] == 1


class TestDeferredOrder:
    """A window's re-adds land in the next window, one per key, in key order."""

    def test_hub_relabel_readds_every_edge_once_in_key_order(self):
        """Relabelling a degree-d vertex defers d re-adds; the relabel is
        one update, counted once."""
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
        assert ing.updates_accepted == accepted + 1
        assert ing.updates_dropped == 0
        assert store.vertex_label_at(1000, loaded + 1) == "hub"

    def test_relabel_in_place_keeps_position_and_cancel_removes(self):
        """A second relabel replaces the first's re-add, a delete cancels
        it, an add of an edge being re-added is dropped, and a later
        relabel joins the same re-add window."""
        store, queue, ing = make_ingress(window_size=100)
        edges = [(1, 2), (3, 4), (5, 6), (7, 8)]
        for u, v in edges:
            ing.submit(Update.add_edge(u, v, label="old"))
        ing.flush()
        loaded = store.latest_timestamp

        for u, v in edges[:3]:
            ing.submit(Update.set_edge_label(u, v, "new"))
        ing.submit(Update.set_edge_label(1, 2, "newer"))  # in place, not re-queued
        ing.submit(Update.delete_edge(3, 4))  # cancels that re-add
        ing.submit(Update.add_edge(5, 6, label="dup"))  # already being re-added
        assert ing.updates_dropped == 3  # the dup, the delete, (3, 4)'s relabel
        ing.submit(Update.set_edge_label(7, 8, "new"))
        dropped = ing.updates_dropped
        ing.flush()
        assert ing.updates_dropped == dropped

        items = [item for item in iter(queue.poll, None) if item.timestamp > loaded]
        assert [(i.timestamp, i.update.key, i.update.added) for i in items] == [
            (loaded + 1, key, False) for key in edges
        ] + [(loaded + 2, key, True) for key in [(1, 2), (5, 6), (7, 8)]]
        assert [i.update.label for i in items[4:]] == ["newer", "new", "new"]
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

    def test_idle_gap_does_not_close_the_next_window(self):
        """A window opens with its first update, not when the last closed:
        neither a time-closed window nor a flush starts the next one's clock."""
        clock = {"now": 0.0}
        store = MultiVersionStore()
        ingress = IngressNode(
            store, window_size=1000, window_seconds=5.0, clock=lambda: clock["now"]
        )

        def submit_at(now, u, v):
            clock["now"] = now
            ingress.submit(Update.add_edge(u, v))
            return ingress.windows_applied

        assert submit_at(0.0, 1, 2) == 0
        assert submit_at(6.0, 2, 3) == 1  # closes window 1
        assert submit_at(60.0, 3, 4) == 1  # opens window 2 after the gap
        assert submit_at(64.0, 4, 5) == 1
        assert submit_at(65.0, 5, 6) == 2  # 5s into window 2
        assert submit_at(66.0, 6, 7) == 2
        ingress.flush()
        assert submit_at(200.0, 7, 8) == 3  # opens window 4 after the gap
        assert store.edge_alive_at(3, 4, 2) and not store.edge_alive_at(3, 4, 1)
        assert store.edge_alive_at(6, 7, 3) and not store.edge_alive_at(7, 8, 3)


class TestDirectionSurvivesReAdd:
    """A deferred re-add carries the edge's direction, in key order."""

    @staticmethod
    def arc_then(*updates):
        """Arc 3->1 (``rev`` in key order), then ``updates``; the store."""
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(3, 1, direction="fwd"))
        ing.flush()
        for update in updates:
            ing.submit(update)
        ing.flush()
        return store

    def test_delete_then_add_in_one_window(self):
        store = self.arc_then(
            Update.delete_edge(1, 3), Update.add_edge(3, 1, direction="fwd")
        )
        ts = store.latest_timestamp
        assert ts == 3 and not store.edge_alive_at(1, 3, 2)
        assert store.edge_direction_at(1, 3, ts) == "rev"

    def test_edge_relabel(self):
        store = self.arc_then(Update.set_edge_label(1, 3, "x"))
        ts = store.latest_timestamp
        assert store.edge_label_at(1, 3, ts) == "x"
        assert store.edge_direction_at(1, 3, ts) == "rev"

    def test_relabel_of_an_arc_added_in_the_open_window(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(3, 1, direction="fwd"))
        ing.submit(Update.set_edge_label(1, 3, "x"))
        ing.flush()
        ts = store.latest_timestamp
        assert store.edge_label_at(1, 3, ts) == "x"
        assert store.edge_direction_at(1, 3, ts) == "rev"

    def test_vertex_relabel(self):
        store = self.arc_then(Update.set_vertex_label(1, "red"))
        ts = store.latest_timestamp
        assert ts == 3 and store.edge_alive_at(1, 3, ts)
        assert store.edge_direction_at(1, 3, ts) == "rev"

    def test_feed_forward_loop_survives_delete_and_readd(self):
        """Arcs 1->2, 2->3, 1->3; deleting and re-adding 1->3 in one window
        removes the loop at ts 2 and brings it back at ts 3."""
        session = StreamingSession(FeedForwardLoops(), window_size=10)
        try:
            for window in readded_arc_windows(1, 2, 3):
                session.submit_many(window)
                session.flush()
            deltas = [(d.timestamp, d.status.name) for d in session.deltas()]
            assert deltas == [(1, "NEW"), (2, "REM"), (3, "NEW")]
            assert len(session.live_matches()) == 1
        finally:
            session.close()


class TestOneAtATime:
    """A window holds what applying its updates one at a time leaves, and
    each submitted update is counted once, accepted or dropped."""

    @pytest.mark.parametrize(
        "machine, examples",
        [(IngressMachine, 200), (NetIngressMachine, 60)],
        ids=["mv", "net"],
    )
    def test_windows_equal_one_at_a_time_application(self, machine, examples):
        """The state machine of ``scenarios.IngressMachine``, on fixed
        examples: about 4 s on ``mv`` and 1 s on ``net``."""
        run_state_machine_as_test(machine, settings=machine_settings(examples))

    @pytest.mark.parametrize("window", [10, 1])
    def test_a_labelled_vertex_add_relabels_like_set_vertex_label(self, window):
        """A label on an added vertex that has edges is a relabel: the
        edges at the vertex mark every match the new label changes."""

        def live(labelling):
            session = StreamingSession(
                ReadsEverything(VertexInduced), window_size=window
            )
            try:
                session.submit_many([Update.add_edge(1, 2), Update.add_edge(2, 3)])
                session.flush()
                session.submit(labelling)
                session.flush()
                store = session.store
                assert store.vertex_label_at(1, store.latest_timestamp) == "a"
                return collect_matches(session.deltas())
            finally:
                session.close()

        relabelled = live(Update.set_vertex_label(1, "a"))
        assert live(Update.add_vertex(1, "a")) == relabelled
        assert len(relabelled) == 1

    def test_relabel_after_a_delete_in_one_window_is_dropped(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2, label="a"))
        ing.flush()
        ing.submit(Update.delete_edge(1, 2))
        ing.submit(Update.set_edge_label(1, 2, "x"))
        ing.flush()
        assert store.latest_timestamp == 2
        assert not store.edge_alive_at(1, 2, 2)
        assert (ing.updates_accepted, ing.updates_dropped) == (2, 1)

    def test_vertex_delete_takes_an_edge_added_in_the_open_window(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 3))
        ing.flush()
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.delete_vertex(1))
        ing.flush()
        assert store.latest_timestamp == 2
        assert not store.edge_alive_at(1, 2, 2)
        assert not store.edge_alive_at(1, 3, 2)
        # the add of (1, 2) is cancelled; the vertex delete still deletes (1, 3)
        assert (ing.updates_accepted, ing.updates_dropped) == (2, 1)

    def test_vertex_delete_of_a_vertex_only_the_open_window_adds(self):
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2))
        ing.submit(Update.delete_vertex(1))
        ing.flush()
        assert queue.total_appended() == 0
        assert (ing.updates_accepted, ing.updates_dropped) == (0, 2)

    @pytest.mark.parametrize(
        "updates, verdicts",
        [
            ([Update.delete_edge(1, 2), Update.add_edge(1, 2)], (2, 0)),
            ([Update.set_edge_label(1, 2, "b")], (1, 0)),
            ([Update.set_vertex_label(1, "red")], (1, 0)),
            ([Update.set_vertex_label(9, "red")], (1, 0)),
            ([Update.add_edge(2, 3), Update.delete_edge(2, 3)], (0, 2)),
            ([Update.delete_edge(1, 2), Update.add_edge(1, 2),
              Update.delete_edge(1, 2)], (1, 2)),  # fmt: skip
            ([Update.add_vertex(1)], (0, 1)),
            ([Update.add_vertex(1, "red")], (1, 0)),
            ([Update.delete_vertex(9)], (0, 1)),
        ],
        ids=[
            "delete-add", "edge-relabel", "vertex-relabel", "isolated-relabel",
            "add-delete", "delete-add-delete", "add-known-vertex",
            "label-known-vertex", "delete-unknown-vertex",
        ],  # fmt: skip
    )
    def test_each_update_counted_once(self, updates, verdicts):
        """``(accepted, dropped)`` of ``updates``, in one window after
        edges (1, 2) and (1, 3)."""
        store, queue, ing = make_ingress(window_size=10)
        ing.submit(Update.add_edge(1, 2, label="a"))
        ing.submit(Update.add_edge(1, 3))
        ing.flush()
        for update in updates:
            ing.submit(update)
        ing.flush()
        assert (ing.updates_accepted - 2, ing.updates_dropped) == verdicts

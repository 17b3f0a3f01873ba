"""Unit tests for the durable work queue."""

import pytest

from repro.errors import OffsetError, QueueClosedError, WorkerCrashed
from repro.streaming.queue import WorkQueue
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.bridge import queue_to_registry
from repro.types import EdgeUpdate


def upd(u, v, added=True):
    return EdgeUpdate(u, v, added=added)


class TestAppendPoll:
    def test_fifo_order(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        q.append(1, upd(3, 4))
        q.append(2, upd(5, 6))
        assert q.poll().update.key == (1, 2)
        assert q.poll().update.key == (3, 4)
        assert q.poll().update.key == (5, 6)
        assert q.poll() is None

    def test_offsets_monotonic(self):
        q = WorkQueue()
        assert q.append(1, upd(1, 2)) == 0
        assert q.append(1, upd(2, 3)) == 1

    def test_timestamps_must_be_non_decreasing(self):
        q = WorkQueue()
        q.append(5, upd(1, 2))
        with pytest.raises(OffsetError):
            q.append(4, upd(2, 3))

    def test_poll_guarantees_min_timestamp(self):
        """Any pull receives ts <= every other queued item's ts."""
        q = WorkQueue()
        for ts in (1, 1, 2, 3):
            q.append(ts, upd(ts, ts + 10))
        item = q.poll()
        remaining = [q.poll().timestamp for _ in range(3)]
        assert all(item.timestamp <= ts for ts in remaining)

    def test_closed_queue_rejects_append(self):
        q = WorkQueue()
        q.close()
        with pytest.raises(QueueClosedError):
            q.append(1, upd(1, 2))

    def test_closed_queue_still_drains(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        q.close()
        assert q.poll() is not None


class TestAckRedeliver:
    def test_ack_completes(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        item = q.poll()
        q.ack(item.offset)
        assert q.is_drained()
        assert q.acked_count() == 1

    def test_ack_unknown_offset(self):
        q = WorkQueue()
        with pytest.raises(OffsetError):
            q.ack(0)

    def test_redeliver_returns_item(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        item = q.poll()
        assert q.poll() is None
        q.redeliver(item.offset)
        again = q.poll()
        assert again.offset == item.offset
        assert again.update == item.update

    def test_redelivered_item_keeps_fifo_priority(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        q.append(1, upd(3, 4))
        first = q.poll()
        q.redeliver(first.offset)
        assert q.poll().offset == first.offset  # lowest offset first again

    def test_redeliver_all(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        q.append(1, upd(3, 4))
        a, b = q.poll(), q.poll()
        q.redeliver_all([a.offset, b.offset])
        assert len(q) == 2

    def test_double_ack_rejected(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        item = q.poll()
        q.ack(item.offset)
        with pytest.raises(OffsetError):
            q.ack(item.offset)


class TestWatermark:
    def test_empty_queue_watermark(self):
        assert WorkQueue().low_watermark() == 0

    def test_all_acked(self):
        q = WorkQueue()
        q.append(3, upd(1, 2))
        q.ack(q.poll().offset)
        assert q.low_watermark() == 3

    def test_pending_blocks_watermark(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        q.append(2, upd(3, 4))
        item1 = q.poll()
        q.ack(item1.offset)
        assert q.low_watermark() == 1  # ts=2 not yet processed

    def test_in_flight_blocks_watermark(self):
        q = WorkQueue()
        q.append(2, upd(1, 2))
        q.poll()  # in flight, not acked
        assert q.low_watermark() == 1

    def test_out_of_order_acks(self):
        q = WorkQueue()
        q.append(1, upd(1, 2))
        q.append(2, upd(3, 4))
        a, b = q.poll(), q.poll()
        q.ack(b.offset)
        assert q.low_watermark() == 0  # ts=1 still in flight
        q.ack(a.offset)
        assert q.low_watermark() == 2


class TestWindowWatermark:
    """The low watermark as the windowed consumer moves it: a window is
    covered only once it is acked, in timestamp order, and a failed window
    holds it back (paper sections 5.4 and 5.5)."""

    @staticmethod
    def three_windows():
        q = WorkQueue()
        for ts in (1, 2, 3):
            for i in range(ts):
                q.append(ts, upd(10 * ts + i, 10 * ts + i + 1))
        return q

    def test_drain_windows_groups_items_by_timestamp(self):
        q = self.three_windows()
        windows = [(ts, [i.timestamp for i in items]) for ts, items in q.drain_windows()]
        assert windows == [(1, [1]), (2, [2, 2]), (3, [3, 3, 3])]
        assert q.is_drained()

    def test_watermark_reaches_a_window_only_once_it_is_acked(self):
        q = self.three_windows()
        seen = []
        for ts, _ in q.drain_windows():
            seen.append((ts, q.low_watermark()))
        assert seen == [(1, 0), (2, 1), (3, 2)]
        assert q.low_watermark() == 3

    def test_failed_window_keeps_the_watermark_below_it(self):
        q = self.three_windows()
        windows = q.drain_windows()
        next(windows)
        ts, items = next(windows)  # window 1 acked, window 2 in flight
        q.redeliver_all([item.offset for item in items])
        windows.close()
        assert ts == 2 and q.low_watermark() == 1
        assert q.in_flight_offsets() == []
        # the next consumer resumes with the failed window, whole
        resumed = [(ts, len(items)) for ts, items in q.drain_windows()]
        assert resumed == [(2, 2), (3, 3)]
        assert q.low_watermark() == 3

    def test_injected_crash_redelivers_within_the_window(self):
        q = self.three_windows()
        crashed = set()

        def on_poll(item):
            if item.offset not in crashed:
                crashed.add(item.offset)
                raise WorkerCrashed(0, item.offset)

        got = [[i.offset for i in items] for _, items in q.drain_windows(on_poll)]
        assert got == [[0], [1, 2], [3, 4, 5]]
        assert crashed == set(range(6))
        assert q.acked_count() == 6 and q.low_watermark() == 3

    def test_watermark_never_regresses(self):
        import random

        rng = random.Random(11)
        q = WorkQueue()
        ts, last = 0, 0
        for _ in range(400):
            op = rng.random()
            if op < 0.35:
                ts += 1
                for i in range(rng.randint(1, 3)):
                    q.append(ts, upd(i, i + 1))
            elif op < 0.6:
                q.poll()
            elif op < 0.85 and q.in_flight_offsets():
                q.ack(rng.choice(q.in_flight_offsets()))
            elif q.in_flight_offsets():
                q.redeliver(rng.choice(q.in_flight_offsets()))
            mark = q.low_watermark()
            assert last <= mark <= ts
            last = mark

    def test_is_drained_only_after_the_last_window_acks(self):
        q = self.three_windows()
        states = [q.is_drained() for _ in q.drain_windows()]
        assert states == [False, False, False]
        assert q.is_drained() and q.acked_count() == q.total_appended() == 6


class TestBoundedState:
    @staticmethod
    def retained(q):
        """Entries held across every container the queue owns."""
        return sum(
            len(value)
            for value in vars(q).values()
            if isinstance(value, (list, dict, set))
        )

    def test_state_after_drained_windows_does_not_grow(self):
        q = WorkQueue()
        sizes = []
        for ts in range(1, 41):
            for i in range(25):
                q.append(ts, upd(i, i + 1))
            assert sum(len(items) for _, items in q.drain_windows()) == 25
            sizes.append(self.retained(q))
        assert sizes[-1] == sizes[0] == 0
        assert q.acked_count() == q.total_appended() == 1000
        assert q.is_drained() and q.low_watermark() == 40


class TestWindowForms:
    """``append_window`` / ``ack_window`` are N x ``append`` / ``ack`` under one lock."""

    # windows of 3, 1 and 4 updates, with a redelivery in the middle of the run
    WINDOWS = [(1, 3), (2, 1), (4, 4)]

    @staticmethod
    def observable(q, telemetry):
        projected = MetricsRegistry()
        queue_to_registry(projected, q)
        totals = projected.counter_totals()
        latency = telemetry.registry.histogram("repro_queue_ack_latency_seconds", "")
        return {
            "appended": q.total_appended(),
            "acked": q.acked_count(),
            "ready": len(q),
            "in_flight": q.in_flight_offsets(),
            "watermark": q.low_watermark(),
            "drained": q.is_drained(),
            "c_appended": totals.get("repro_queue_appended_total"),
            "c_acked": totals.get("repro_queue_acked_total"),
            "c_redelivered": totals.get("repro_queue_redelivered_total"),
            "ack_latency_samples": latency.labels().count,
        }

    def drive(self, windowed):
        """The same schedule through either form; returns what it observed."""
        telemetry = Telemetry()
        q = WorkQueue(telemetry=telemetry)
        seen = []
        for ts, n in self.WINDOWS:
            updates = [upd(10 * ts + i, 10 * ts + i + 1) for i in range(n)]
            if windowed:
                offsets = list(q.append_window(ts, updates))
            else:
                offsets = [q.append(ts, update) for update in updates]
            seen.append(("offsets", offsets))
            seen.append(("after append", self.observable(q, telemetry)))
        items = [q.poll() for _ in range(4)]  # window 1 and window 2
        seen.append(("polled", [(i.offset, i.timestamp, i.update) for i in items]))
        q.redeliver(items[1].offset)
        first = [items[0].offset, items[2].offset]
        if windowed:
            q.ack_window(first)
        else:
            for offset in first:
                q.ack(offset)
        seen.append(("after first ack", self.observable(q, telemetry)))
        rest = [item.offset for item in iter(q.poll, None)]
        seen.append(("rest", rest))
        rest.append(items[3].offset)
        if windowed:
            q.ack_window(rest)
        else:
            for offset in rest:
                q.ack(offset)
        seen.append(("after last ack", self.observable(q, telemetry)))
        return seen

    def test_window_forms_equal_the_one_item_forms(self):
        windowed, one_by_one = self.drive(True), self.drive(False)
        assert windowed == one_by_one
        final = windowed[-1][1]
        assert final["drained"] and final["watermark"] == 4
        assert final["c_appended"] == final["c_acked"] == final["acked"] == 8
        assert final["c_redelivered"] == 1 and final["ack_latency_samples"] == 8

    def test_closed_queue_appends_nothing(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2)])
        q.close()
        with pytest.raises(QueueClosedError):
            q.append_window(2, [upd(2, 3), upd(3, 4)])
        assert q.total_appended() == 1 and len(q) == 1

    def test_regressing_timestamp_appends_nothing(self):
        q = WorkQueue()
        q.append_window(5, [upd(1, 2)])
        with pytest.raises(OffsetError):
            q.append_window(4, [upd(2, 3), upd(3, 4)])
        assert q.total_appended() == 1 and len(q) == 1
        assert list(q.append_window(5, [upd(2, 3)])) == [1]  # the clock did not move

    def test_empty_window_is_zero_appends(self):
        q = WorkQueue()
        q.append_window(3, [upd(1, 2)])
        q.close()
        assert list(q.append_window(1, [])) == []  # nothing to refuse
        q.ack(q.poll().offset)
        assert q.total_appended() == 1 and q.low_watermark() == 3

    def test_ack_window_stops_at_the_first_offset_not_in_flight(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(2, 3), upd(3, 4)])
        a, b, c = q.poll(), q.poll(), q.poll()
        q.redeliver(b.offset)
        with pytest.raises(OffsetError, match=f"offset {b.offset} is not in flight"):
            q.ack_window([a.offset, b.offset, c.offset])
        # as three acks would: the first landed, the third was never tried
        assert q.acked_count() == 1 and q.in_flight_offsets() == [c.offset]

    def test_window_append_keeps_redelivered_items_first(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(2, 3)])
        first = q.poll()
        q.poll()
        q.redeliver(first.offset)
        q.append_window(2, [upd(3, 4), upd(4, 5)])
        assert [item.offset for item in iter(q.poll, None)] == [0, 2, 3]

"""Unit tests for the durable work queue: a window is its unit."""

from collections import deque

import pytest

from repro.errors import OffsetError, WorkerCrashed
from repro.streaming.queue import WorkQueue
from repro.telemetry import MetricsRegistry, Telemetry
from repro.telemetry.bridge import queue_to_registry
from repro.types import EdgeUpdate


def upd(u, v, added=True):
    return EdgeUpdate(u, v, added=added)


def keys(windows):
    """``(ts, [edge keys])`` per drained window."""
    return [(ts, [u.key for u in updates]) for ts, updates in windows]


class TestAppend:
    def test_fifo_order(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(3, 4)])
        q.append_window(2, [upd(5, 6)])
        assert keys(q.drain_windows()) == [(1, [(1, 2), (3, 4)]), (2, [(5, 6)])]
        assert list(q.drain_windows()) == []

    def test_offsets_count_updates(self):
        q = WorkQueue()
        assert q.append_window(1, [upd(1, 2), upd(2, 3)]) == range(0, 2)
        assert q.append_window(1, [upd(3, 4)]) == range(2, 3)
        assert q.total_appended() == len(q) == 3

    def test_timestamps_must_be_non_decreasing(self):
        q = WorkQueue()
        q.append_window(5, [upd(1, 2)])
        with pytest.raises(OffsetError):
            q.append_window(4, [upd(2, 3)])

    def test_hand_out_guarantees_min_timestamp(self):
        """Any pull receives ts <= every other queued window's ts."""
        q = WorkQueue()
        for ts in (1, 1, 2, 3):
            q.append_window(ts, [upd(ts, ts + 10)])
        windows = q.drain_windows()
        first, _ = next(windows)
        assert all(first <= ts for ts, _ in windows)

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
        assert list(q.append_window(1, [])) == []  # nothing to refuse
        assert [ts for ts, _ in q.drain_windows()] == [3]
        assert q.total_appended() == 1 and q.low_watermark() == 3

    def test_window_is_kept_apart_from_the_callers_list(self):
        q = WorkQueue()
        updates = [upd(1, 2)]
        q.append_window(1, updates)
        updates.append(upd(2, 3))
        assert keys(q.drain_windows()) == [(1, [(1, 2)])]


class TestAckRedeliver:
    def test_ack_completes(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(2, 3)])
        assert len(list(q.drain_windows())) == 1
        assert q.is_drained()
        assert q.acked_count() == 2

    def test_window_is_acked_when_the_next_is_asked_for(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(2, 3)])
        windows = q.drain_windows()
        next(windows)
        assert q.in_flight_offsets() == [0, 1] and len(q) == 0
        assert q.acked_count() == 0 and not q.is_drained()
        assert next(windows, None) is None
        assert q.acked_count() == 2 and q.in_flight_offsets() == []

    def test_redelivered_window_is_handed_out_again_first(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(2, 3)])
        q.append_window(2, [upd(3, 4)])
        windows = q.drain_windows()
        ts, updates = next(windows)
        q.redeliver()  # its worker died before any output
        windows.close()
        assert q.in_flight_offsets() == [] and len(q) == 3
        again = list(q.drain_windows())
        assert again[0] == (ts, updates)  # whole, and first
        assert keys(again) == [(1, [(1, 2), (2, 3)]), (2, [(3, 4)])]
        assert q.is_drained() and q.acked_count() == 3

    def test_redeliver_counts_the_windows_updates(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(2, 3), upd(3, 4)])
        next(q.drain_windows())
        q.redeliver()
        assert q.redelivered == 3 and len(q) == 3

    def test_redeliver_with_nothing_in_flight_changes_nothing(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2)])
        q.redeliver()
        assert q.redelivered == 0 and len(q) == 1
        assert q.in_flight_offsets() == []

    def test_ack_of_a_redelivered_window_rejected(self):
        """A consumer that redelivers and then asks for the next window
        cannot ack what it gave back."""
        q = WorkQueue()
        q.append_window(1, [upd(1, 2)])
        windows = q.drain_windows()
        next(windows)
        q.redeliver()
        with pytest.raises(OffsetError, match="offset 0 is not in flight"):
            next(windows)
        assert q.acked_count() == 0 and len(q) == 1

    def test_redelivered_windows_keep_their_order_ahead_of_new_ones(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(2, 3)])
        q.append_window(2, [upd(3, 4)])
        next(q.drain_windows())  # window 1, abandoned in flight
        next(q.drain_windows())  # window 2, abandoned in flight
        assert q.in_flight_offsets() == [0, 1, 2]
        q.redeliver()
        q.append_window(3, [upd(4, 5)])
        assert [ts for ts, _ in q.drain_windows()] == [1, 2, 3]


class TestWatermark:
    def test_empty_queue_watermark(self):
        assert WorkQueue().low_watermark() == 0

    def test_all_acked(self):
        q = WorkQueue()
        q.append_window(3, [upd(1, 2)])
        list(q.drain_windows())
        assert q.low_watermark() == 3

    def test_pending_blocks_watermark(self):
        q = WorkQueue()
        q.append_window(1, [upd(1, 2)])
        q.append_window(2, [upd(3, 4)])
        windows = q.drain_windows()
        next(windows)
        next(windows)  # window 1 acked, window 2 in flight
        assert q.low_watermark() == 1  # ts=2 not yet processed

    def test_in_flight_blocks_watermark(self):
        q = WorkQueue()
        q.append_window(2, [upd(1, 2)])
        next(q.drain_windows())  # in flight, not acked
        assert q.low_watermark() == 1

    def test_abandoned_window_holds_the_watermark_below_a_later_ack(self):
        """Windows acked out of order: the older one, still in flight,
        holds the watermark until it is redelivered and acked."""
        q = WorkQueue()
        q.append_window(1, [upd(1, 2)])
        q.append_window(2, [upd(3, 4)])
        next(q.drain_windows())  # window 1, abandoned in flight
        assert [ts for ts, _ in q.drain_windows()] == [2]  # and acked
        assert q.acked_count() == 1
        assert q.low_watermark() == 0  # ts=1 still in flight
        q.redeliver()
        assert [ts for ts, _ in q.drain_windows()] == [1]
        assert q.low_watermark() == 2 and q.is_drained()


class TestWindowWatermark:
    """The low watermark as the windowed consumer moves it: a window is
    covered only once it is acked, in timestamp order, and a failed window
    holds it back (paper sections 5.4 and 5.5)."""

    @staticmethod
    def three_windows():
        q = WorkQueue()
        for ts in (1, 2, 3):
            q.append_window(ts, [upd(10 * ts + i, 10 * ts + i + 1) for i in range(ts)])
        return q

    def test_drain_windows_yields_each_appended_window(self):
        q = self.three_windows()
        windows = [(ts, len(updates)) for ts, updates in q.drain_windows()]
        assert windows == [(1, 1), (2, 2), (3, 3)]
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
        ts, _ = next(windows)  # window 1 acked, window 2 in flight
        q.redeliver()
        windows.close()
        assert ts == 2 and q.low_watermark() == 1
        assert q.in_flight_offsets() == []
        # the next consumer resumes with the failed window, whole
        resumed = [(ts, len(updates)) for ts, updates in q.drain_windows()]
        assert resumed == [(2, 2), (3, 3)]
        assert q.low_watermark() == 3

    def test_injected_crash_hands_the_update_out_again(self):
        q = self.three_windows()
        calls, crashed = [], set()

        def on_hand_out(offset, ts):
            calls.append((offset, ts))
            if offset not in crashed:
                crashed.add(offset)
                raise WorkerCrashed(0, offset)

        got = [(ts, len(updates)) for ts, updates in q.drain_windows(on_hand_out)]
        assert got == [(1, 1), (2, 2), (3, 3)]
        # each update is handed out twice, back to back, in offset order
        handed_out = list(enumerate((1, 2, 2, 3, 3, 3)))
        assert calls == [pickup for pickup in handed_out for _ in range(2)]
        assert q.redelivered == 6
        assert q.acked_count() == 6 and q.low_watermark() == 3

    def test_watermark_never_regresses(self):
        import random

        rng = random.Random(11)
        q = WorkQueue()
        consumers = []
        ts, last = 0, 0
        for _ in range(400):
            op = rng.random()
            if op < 0.35:
                ts += 1
                q.append_window(ts, [upd(i, i + 1) for i in range(rng.randint(1, 3))])
            elif op < 0.6:
                consumer = q.drain_windows()
                if next(consumer, None) is not None:
                    consumers.append(consumer)
            elif op < 0.85 and consumers:
                consumer = rng.choice(consumers)
                if next(consumer, None) is None:  # acks its window
                    consumers.remove(consumer)
            elif consumers:
                q.redeliver()
                consumers.clear()
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
            if isinstance(value, (list, dict, set, deque))
        )

    def test_state_after_drained_windows_does_not_grow(self):
        q = WorkQueue()
        sizes = []
        for ts in range(1, 41):
            q.append_window(ts, [upd(i, i + 1) for i in range(25)])
            assert self.retained(q) == 1  # one entry per window
            assert sum(len(updates) for _, updates in q.drain_windows()) == 25
            sizes.append(self.retained(q))
        assert sizes[-1] == sizes[0] == 0
        assert q.acked_count() == q.total_appended() == 1000
        assert q.is_drained() and q.low_watermark() == 40


class TestCounts:
    """Offsets, counters and ack-latency samples count updates, though
    the queue hands out and acks whole windows."""

    # windows of 3, 1 and 4 updates, the first redelivered once
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
            # a zero count projects no series
            "c_appended": totals.get("repro_queue_appended_total", 0),
            "c_acked": totals.get("repro_queue_acked_total", 0),
            "c_redelivered": totals.get("repro_queue_redelivered_total", 0),
            "ack_latency_samples": latency.labels().count,
        }

    def test_counts_are_per_update(self):
        telemetry = Telemetry()
        q = WorkQueue(telemetry=telemetry)
        offsets = [
            list(q.append_window(ts, [upd(10 * ts + i, 10 * ts + i + 1) for i in range(n)]))
            for ts, n in self.WINDOWS
        ]
        assert offsets == [[0, 1, 2], [3], [4, 5, 6, 7]]
        windows = q.drain_windows()
        next(windows)
        assert self.observable(q, telemetry) == {
            "appended": 8, "acked": 0, "ready": 5, "in_flight": [0, 1, 2],
            "watermark": 0, "drained": False, "c_appended": 8, "c_acked": 0,
            "c_redelivered": 0, "ack_latency_samples": 0,
        }
        q.redeliver()
        windows.close()
        windows = q.drain_windows()
        next(windows)
        next(windows)  # window 1 acked, window 2 in flight
        assert self.observable(q, telemetry) == {
            "appended": 8, "acked": 3, "ready": 4, "in_flight": [3],
            "watermark": 1, "drained": False, "c_appended": 8, "c_acked": 3,
            "c_redelivered": 3, "ack_latency_samples": 3,
        }
        assert sum(1 for _ in windows) == 1
        final = self.observable(q, telemetry)
        assert final["drained"] and final["watermark"] == 4
        assert final["c_appended"] == final["c_acked"] == final["acked"] == 8
        assert final["c_redelivered"] == 3 and final["ack_latency_samples"] == 8

    def test_hook_runs_again_on_a_redelivered_window(self):
        """A window handed out twice is two pickups of each of its updates."""
        q = WorkQueue()
        q.append_window(1, [upd(1, 2), upd(2, 3)])
        q.append_window(2, [upd(3, 4)])
        calls = []
        windows = q.drain_windows(lambda offset, ts: calls.append((offset, ts)))
        next(windows)
        q.redeliver()
        windows.close()
        list(q.drain_windows(lambda offset, ts: calls.append((offset, ts))))
        assert calls == [(0, 1), (1, 1), (0, 1), (1, 1), (2, 2)]
        assert q.redelivered == 2 and q.acked_count() == 3

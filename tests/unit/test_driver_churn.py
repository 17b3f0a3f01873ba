"""Unit tests for the churn stream generator and the micro-batch loop over a session."""

import pytest

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.generators import churn_stream, erdos_renyi
from repro.runtime.session import StreamingSession
from repro.types import UpdateKind


class TestChurnStream:
    def test_stream_is_valid(self):
        g = erdos_renyi(12, 30, seed=70)
        present = set()
        for update in churn_stream(g, 200, churn=0.3, seed=1):
            key = (min(update.src, update.dst), max(update.src, update.dst))
            if update.kind is UpdateKind.ADD_EDGE:
                assert key not in present
                present.add(key)
            else:
                assert key in present
                present.remove(key)

    def test_deterministic(self):
        g = erdos_renyi(10, 20, seed=71)
        a = [(u.kind, u.src, u.dst) for u in churn_stream(g, 60, seed=2)]
        b = [(u.kind, u.src, u.dst) for u in churn_stream(g, 60, seed=2)]
        assert a == b

    def test_length(self):
        g = erdos_renyi(10, 20, seed=72)
        assert sum(1 for _ in churn_stream(g, 75, churn=0.4, seed=3)) == 75

    def test_zero_churn_is_pure_additions(self):
        g = erdos_renyi(10, 20, seed=73)
        updates = list(churn_stream(g, 20, churn=0.0, seed=4))
        assert all(u.kind is UpdateKind.ADD_EDGE for u in updates)

    def test_validation(self):
        g = erdos_renyi(5, 5, seed=74)
        with pytest.raises(ValueError):
            list(churn_stream(g, 10, churn=1.0))


def chunks(updates, size):
    updates = list(updates)
    return [updates[i : i + size] for i in range(0, len(updates), size)]


class TestMicroBatchLoop:
    """A long-running service is a loop over ``session.process(chunk)``."""

    def test_drains_source_and_counts(self):
        g = erdos_renyi(14, 35, seed=75)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=5)
        produced = [
            len(session.process(batch))
            for batch in chunks(churn_stream(g, 80, churn=0.25, seed=5), 10)
        ]
        assert len(produced) == 8
        assert sum(produced) == len(session.deltas())
        # every micro-batch closed at least one window; a window of vertex
        # updates only applies without queueing work
        assert 8 <= len(session.window_stats) <= session.ingress.windows_applied
        executed = sum(w.num_updates for w in session.window_stats)
        assert executed == session.queue.acked_count() == session.queue.total_appended()
        assert session.latency_summary().total_seconds > 0
        assert session.queue.low_watermark() == session.store.latest_timestamp
        # the delta stream stays consistent through churn
        collect_matches(session.deltas())

    def test_incremental_state_matches_recompute(self):
        g = erdos_renyi(14, 35, seed=76)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=7)
        for batch in chunks(churn_stream(g, 120, churn=0.3, seed=6), 16):
            session.process(batch)
        expected = collect_matches(
            TesseractEngine.run_static(
                session.snapshot(), CliqueMining(3, min_size=3)
            )
        )
        assert session.live_matches() == expected

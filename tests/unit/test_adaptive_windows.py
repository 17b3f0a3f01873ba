"""Unit tests for the adaptive window controller."""

import pytest

from repro.streaming.adaptive import AdaptiveWindowController


def make(target=1.0, **kw):
    return AdaptiveWindowController(target_latency=target, **kw)


class TestControl:
    def test_shrinks_when_over_budget(self):
        c = make(initial_size=100)
        assert c.observe(100, 2.0) == 50

    def test_grows_when_comfortably_under(self):
        c = make(initial_size=100)
        assert c.observe(100, 0.1) == 150

    def test_holds_in_hysteresis_band(self):
        c = make(initial_size=100)
        assert c.observe(100, 0.8) == 100  # between 0.5 and 1.0 x target

    def test_respects_bounds(self):
        c = make(initial_size=10, min_size=10, max_size=20)
        assert c.observe(10, 5.0) == 10  # cannot shrink below min
        c2 = make(initial_size=20, min_size=10, max_size=20)
        assert c2.observe(20, 0.01) == 20  # cannot grow past max

    def test_always_makes_progress_when_growing(self):
        # even at tiny sizes growth moves by at least 1
        c = make(initial_size=10, min_size=1)
        c._current = 1
        assert c.observe(1, 0.0) >= 2

    def test_converges_from_above(self):
        """With latency proportional to window size, the controller settles
        at or below the budget."""
        c = make(target=1.0, initial_size=1000, min_size=1, max_size=10000)
        per_update = 0.004  # 250 updates/second of latency budget
        for _ in range(30):
            latency = c.window_size * per_update
            c.observe(c.window_size, latency)
        assert c.window_size * per_update <= 1.0
        assert c.window_size >= 100  # but it did not collapse to min

    def test_history_recorded(self):
        c = make()
        c.observe(100, 0.2)
        c.observe(150, 0.3)
        assert len(c.history) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            make(target=0)
        with pytest.raises(ValueError):
            make(initial_size=5, min_size=10)
        with pytest.raises(ValueError):
            AdaptiveWindowController(target_latency=1, low_water_fraction=1.0)


class TestDrive:
    def test_drives_a_session_end_to_end(self):
        from repro.apps import CliqueMining
        from repro.core.engine import TesseractEngine, collect_matches
        from repro.graph.generators import erdos_renyi, shuffled_edges
        from repro.runtime.session import StreamingSession
        from repro.types import Update

        g = erdos_renyi(16, 40, seed=85)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=10**6)
        controller = AdaptiveWindowController(
            target_latency=0.001, initial_size=8, min_size=2, max_size=64
        )
        history = controller.drive(
            session, (Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=1))
        )
        assert sum(size for size, _ in history) == g.num_edges()
        # one window per controller decision, sized as the controller said
        assert [w.num_updates for w in session.window_stats] == [s for s, _ in history]
        live = collect_matches(session.deltas())
        expected = collect_matches(
            TesseractEngine.run_static(g, CliqueMining(3, min_size=3))
        )
        assert live == expected

"""Adaptive window sizing — tuning the §6.5.4 tradeoff automatically.

The paper picks a fixed 100K-update window as "a good compromise between
throughput and latency" after measuring the tradeoff by hand (section
6.5.4).  :class:`AdaptiveWindowController` automates that choice: given a
per-window latency budget, it observes each window's processing time and
resizes the next window multiplicatively — larger windows amortize
snapshot work (throughput), smaller windows bound latency.

The controller is deliberately simple (AIMD-flavored multiplicative
control with hysteresis) and fully deterministic given the observations,
so its behaviour is unit-testable without wall clocks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, List


@dataclass
class AdaptiveWindowController:
    """Chooses the next window size from observed window latencies."""

    #: per-window processing-latency budget, seconds
    target_latency: float
    min_size: int = 10
    max_size: int = 100_000
    initial_size: int = 100
    #: widen only when comfortably under budget (hysteresis band)
    low_water_fraction: float = 0.5
    grow_factor: float = 1.5
    shrink_factor: float = 0.5

    _current: int = field(init=False)
    history: List[tuple] = field(init=False, default_factory=list)

    def __post_init__(self) -> None:
        if self.target_latency <= 0:
            raise ValueError("target_latency must be positive")
        if not (0 < self.min_size <= self.initial_size <= self.max_size):
            raise ValueError("require 0 < min_size <= initial_size <= max_size")
        if not 0 < self.low_water_fraction < 1:
            raise ValueError("low_water_fraction must be in (0, 1)")
        self._current = self.initial_size

    @property
    def window_size(self) -> int:
        """The size the next window should use."""
        return self._current

    def observe(self, window_size: int, latency_seconds: float) -> int:
        """Record one processed window; returns the new recommended size.

        Over budget → shrink multiplicatively (fast reaction to latency
        violations); comfortably under budget → grow (recover throughput);
        inside the hysteresis band → hold.
        """
        self.history.append((window_size, latency_seconds))
        if latency_seconds > self.target_latency:
            self._current = max(
                self.min_size, int(self._current * self.shrink_factor)
            )
        elif latency_seconds < self.target_latency * self.low_water_fraction:
            self._current = min(
                self.max_size, max(self._current + 1, int(self._current * self.grow_factor))
            )
        return self._current

    def drive(
        self,
        session,
        updates,
        clock: Callable[[], float] = time.perf_counter,
    ):
        """Feed ``updates`` through a StreamingSession, adapting as it goes.

        Submits updates in controller-sized windows (closing each window
        explicitly), processes them, observes the measured latency, and
        resizes.  Returns the per-window (size, latency) history.  The
        monotonic ``clock`` is injectable so tests can drive the controller
        with synthetic latencies; measured seconds feed only the resizing
        decision and the history, never the result stream.
        """
        def run_window(size: int) -> None:
            start = clock()
            session.ingress.close_window()
            session.run_pending()
            self.observe(size, clock() - start)

        buffered = 0
        for update in updates:
            session.submit(update)
            buffered += 1
            if buffered >= self._current:
                run_window(buffered)
                buffered = 0
        if buffered:
            run_window(buffered)
        return list(self.history)

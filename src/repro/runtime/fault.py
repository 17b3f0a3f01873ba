"""Fault injection and exactly-once recovery (paper section 5.5).

Workers hold only soft state: an update whose worker crashed as the durable
work queue handed it out is handed out again, a window whose run failed is
redelivered whole, and because the session publishes a window's deltas only
once the whole window has run — and acks the window only after publishing —
a crash leaves nothing published that a re-run could repeat, so the output
of a crashy run equals the output of a crash-free run.
:class:`FaultInjector` deterministically injects
:class:`~repro.errors.WorkerCrashed` at chosen (worker, task) points so
tests and benchmarks can exercise that path; the
:class:`~repro.runtime.session.StreamingSession` injects as worker 0, once
per update of a window the queue hands out, with that update's offset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.errors import WorkerCrashed


@dataclass(frozen=True)
class CrashPlan:
    """Deterministic crash schedule.

    ``crash_points`` holds (worker_id, nth_task) pairs: worker ``w`` crashes
    when it picks up its ``n``-th task (0-based).  Each point fires once; the
    worker is then considered restarted (fresh, empty soft state).
    """

    crash_points: Tuple[Tuple[int, int], ...] = ()

    @staticmethod
    def every_nth(worker_id: int, n: int, times: int = 1) -> "CrashPlan":
        return CrashPlan(tuple((worker_id, n * (i + 1)) for i in range(times)))


class FaultInjector:
    """Runtime hook checked by workers before processing each task."""

    def __init__(self, plan: CrashPlan) -> None:
        self.plan = plan
        self._pending: Set[Tuple[int, int]] = set(plan.crash_points)
        self._tasks_seen: Dict[int, int] = {}
        self.crashes: List[Tuple[int, int]] = []

    def on_task_start(self, worker_id: int, offset: int) -> None:
        """Raise :class:`WorkerCrashed` if this pickup is a crash point."""
        nth = self._tasks_seen.get(worker_id, 0)
        self._tasks_seen[worker_id] = nth + 1
        if (worker_id, nth) in self._pending:
            self._pending.remove((worker_id, nth))
            self.crashes.append((worker_id, offset))
            raise WorkerCrashed(worker_id, offset)

    @property
    def crash_count(self) -> int:
        return len(self.crashes)


NO_FAULTS = FaultInjector(CrashPlan())

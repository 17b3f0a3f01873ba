"""Aggregate system statistics — a text dashboard for a deployment.

Collects the counters every component already maintains (ingress, store,
queue, delta log, engine) into one report, for operational visibility and for
the examples' output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted, non-empty sequence."""
    rank = max(0, min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1))))
    return sorted_values[rank]


@dataclass(frozen=True)
class LatencySummary:
    """Per-window wall-time distribution (p50/p95/p99/max), merge-order safe.

    Computed from the ``wall_seconds`` of a session's
    :class:`~repro.types.WindowStats` (the one per-window record), so
    summaries of runs on different execution backends are directly
    comparable.  The p99
    column mirrors the paper's Figure 6, which reports 99th-percentile
    per-update latency tails.
    """

    windows: int
    p50_seconds: float
    p95_seconds: float
    p99_seconds: float
    max_seconds: float
    total_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.windows if self.windows else 0.0

    def report(self) -> str:
        if not self.windows:
            return "no windows processed"
        return (
            f"{self.windows} windows: "
            f"p50 {self.p50_seconds * 1e3:.2f}ms / "
            f"p95 {self.p95_seconds * 1e3:.2f}ms / "
            f"p99 {self.p99_seconds * 1e3:.2f}ms / "
            f"max {self.max_seconds * 1e3:.2f}ms "
            f"(total {self.total_seconds:.3f}s)"
        )


def summarize_latencies(wall_seconds: Sequence[float]) -> LatencySummary:
    """Summarize window wall times; order of samples does not matter."""
    samples = sorted(wall_seconds)
    if not samples:
        return LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return LatencySummary(
        windows=len(samples),
        p50_seconds=_percentile(samples, 0.50),
        p95_seconds=_percentile(samples, 0.95),
        p99_seconds=_percentile(samples, 0.99),
        max_seconds=samples[-1],
        total_seconds=sum(samples),
    )


def window_stats_to_registry(registry, window_stats) -> None:
    """Project per-window stats into session-level metrics.

    Counters are set with ``set_total`` (idempotent on re-bridge); the
    histograms are *rebuilt* from the stats list, so this must only be
    called on a freshly built registry (see
    :meth:`~repro.runtime.session.StreamingSession.collect_registry`),
    never repeatedly on a live one.
    """
    from repro.telemetry import SIZE_BUCKETS

    registry.counter(
        "repro_session_windows_total", "snapshot windows executed"
    ).set_total(len(window_stats))
    registry.counter(
        "repro_session_updates_total", "edge updates executed across windows"
    ).set_total(sum(w.num_updates for w in window_stats))
    deltas = registry.counter(
        "repro_session_deltas_total", "match deltas emitted across windows"
    )
    deltas.labels(kind="new").set_total(sum(w.num_new for w in window_stats))
    deltas.labels(kind="rem").set_total(sum(w.num_rem for w in window_stats))
    h_seconds = registry.histogram(
        "repro_session_window_seconds", "wall seconds per executed window"
    )
    h_updates = registry.histogram(
        "repro_session_window_updates",
        "edge updates per executed window",
        buckets=SIZE_BUCKETS,
    )
    for w in window_stats:
        h_seconds.observe(w.wall_seconds)
        h_updates.observe(w.num_updates)


@dataclass
class SystemStats:
    """A point-in-time snapshot of a :class:`StreamingSession`."""

    windows_applied: int
    updates_accepted: int
    updates_dropped: int
    store_vertices: int
    store_edges: int
    store_tombstones: int
    queue_appended: int
    queue_acked: int
    low_watermark: int
    deltas_published: int
    worker_crashes: int
    filter_calls: int
    match_calls: int
    emits: int

    @classmethod
    def collect(cls, session) -> "SystemStats":
        """Snapshot every component counter of a running session."""
        metrics = session.metrics()
        ts = session.store.latest_timestamp
        injector = session.fault_injector
        return cls(
            windows_applied=session.ingress.windows_applied,
            updates_accepted=session.ingress.updates_accepted,
            updates_dropped=session.ingress.updates_dropped,
            store_vertices=session.store.num_vertices(),
            store_edges=session.store.num_edges_at(ts),
            store_tombstones=session.store.tombstone_count(),
            queue_appended=session.queue.total_appended(),
            queue_acked=session.queue.acked_count(),
            low_watermark=session.queue.low_watermark(),
            deltas_published=sum(w.num_deltas for w in session.window_stats),
            worker_crashes=injector.crash_count if injector is not None else 0,
            filter_calls=metrics.filter_calls,
            match_calls=metrics.match_calls,
            emits=metrics.emits,
        )

    def report(self) -> str:
        """Multi-line human-readable dashboard of this snapshot."""
        lines = [
            "tesseract system stats",
            f"  ingress    {self.windows_applied} windows, "
            f"{self.updates_accepted} accepted, {self.updates_dropped} dropped",
            f"  store      {self.store_vertices} vertices, "
            f"{self.store_edges} live edges, {self.store_tombstones} tombstones",
            f"  queue      {self.queue_acked}/{self.queue_appended} acked, "
            f"watermark ts={self.low_watermark}, {self.worker_crashes} crashes",
            f"  output     {self.deltas_published} deltas",
            f"  engine     {self.filter_calls} filter / {self.match_calls} match "
            f"calls, {self.emits} emits",
        ]
        return "\n".join(lines)

"""The single-worker Tesseract engine.

The engine wires the exploration algorithm to the multiversioned store: it
runs EXPLORE for one edge update on the exploration view of the update's
window and returns the resulting match deltas.  Because change detection
and duplicate elimination make every update's task independent (section
4.5), the same engine code is what each distributed worker runs; what
drives windows through it (ingress, queue, publish before ack) is
:class:`~repro.runtime.session.StreamingSession`, the one pipeline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.api import MiningAlgorithm
from repro.core.explore import Explorer
from repro.core.metrics import Metrics
from repro.graph.adjacency import AdjacencyGraph
from repro.store.api import GraphStore
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.types import EdgeUpdate, MatchDelta, Timestamp


class TesseractEngine:
    """Runs update-based exploration for an algorithm over a store."""

    def __init__(
        self,
        store: GraphStore,
        algorithm: MiningAlgorithm,
        metrics: Optional[Metrics] = None,
        telemetry=None,
        worker_label: int = 0,
        profile=None,
    ) -> None:
        from repro.telemetry import ensure

        self.store = store
        self.algorithm = algorithm
        self.metrics = metrics if metrics is not None else Metrics()
        self.telemetry = ensure(telemetry)
        self.worker_label = worker_label
        self.explorer = Explorer(algorithm, metrics=self.metrics, profile=profile)
        if self.telemetry.enabled:
            self._hist_task_seconds = self.telemetry.registry.histogram(
                "repro_engine_task_seconds",
                "wall seconds per exploration task (one edge update)",
            ).labels()
        else:
            self._hist_task_seconds = None

    # -- single-update task (what one distributed worker executes) --------

    def process_update(
        self, ts: Timestamp, update: EdgeUpdate
    ) -> List[MatchDelta]:
        """Run the exploration task for one edge update.

        With telemetry enabled the task is one ``task`` span (child of the
        session's current ``window`` span) recorded through the tracer's
        manual path, and the same two clock readings give the wall time
        observed into ``repro_engine_task_seconds``; the disabled path adds
        a single attribute test.
        """
        telemetry = self.telemetry
        if not telemetry.enabled:
            return self.explorer.explore_update(ExplorationView(self.store, ts), update)
        tracer = telemetry.tracer
        # On the stack until exit_span, so spans opened inside the task
        # (an RPC's wire span) parent under it.
        span_id, parent_id = tracer.enter_span()
        emits_before = self.metrics.emits
        start = tracer.now()
        try:
            deltas = self.explorer.explore_update(ExplorationView(self.store, ts), update)
        except BaseException:
            attrs = {
                "ts": ts,
                "u": update.u,
                "v": update.v,
                "added": update.added,
                "worker": self.worker_label,
            }
            tracer.exit_span(span_id, parent_id, "task", start, tracer.now(), attrs)
            raise
        end = tracer.now()
        self._hist_task_seconds.observe(end - start)
        # built whole, not grown from the failure path's five keys (a resize)
        attrs = {
            "ts": ts,
            "u": update.u,
            "v": update.v,
            "added": update.added,
            "worker": self.worker_label,
            "deltas": len(deltas),
            "emits": self.metrics.emits - emits_before,
        }
        tracer.exit_span(span_id, parent_id, "task", start, end, attrs)
        return deltas

    # -- static execution ------------------------------------------------

    @classmethod
    def run_static(
        cls,
        graph: AdjacencyGraph,
        algorithm: MiningAlgorithm,
        metrics: Optional[Metrics] = None,
    ) -> List[MatchDelta]:
        """Mine a static graph by loading all edges as one addition window.

        This is how the paper runs Tesseract on static inputs (section
        6.2.1): every edge becomes an edge-addition update in a single
        snapshot, and the emitted NEW deltas are exactly the match set.
        """
        store = MultiVersionStore.from_adjacency(graph, ts=1)
        engine = cls(store, algorithm, metrics=metrics)
        deltas: List[MatchDelta] = []
        for u, v in graph.sorted_edges():
            update = EdgeUpdate(u, v, added=True, label=graph.edge_label(u, v))
            deltas.extend(engine.process_update(1, update))
        return deltas


def collect_matches(deltas: Sequence[MatchDelta]) -> set:
    """Apply a delta sequence, returning the identities of live matches.

    Raises ``ValueError`` on inconsistent streams (NEW of a live match or
    REM of a dead one) — the library's replay validator.
    """
    live: set = set()
    for delta in deltas:
        key = delta.subgraph.identity
        if delta.is_new():
            if key in live:
                raise ValueError(f"duplicate NEW for match {key}")
            live.add(key)
        else:
            if key not in live:
                raise ValueError(f"REM for unknown match {key}")
            live.remove(key)
    return live

"""The unified evolving-graph pipeline: one loop, pluggable executors.

:class:`StreamingSession` is the paper's Figure 2 deployment, and the only
way this repo runs a pipeline: updates enter through the **ingress node**,
which sanitizes them, carves snapshot windows, applies each window
atomically to the **multiversioned store**, and appends its edge updates to
the **work queue**; the session then takes the queue one window at a time,
runs the window's tasks on the configured :class:`~repro.runtime.backend.\
ExecutionBackend`, records a :class:`~repro.types.WindowStats`, publishes
the window's deltas (the delta log and every attached **dataflow** sink),
and only then acknowledges the window's queue items — section 5.5's rule
that a worker publishes before it acks, at window granularity.

Switching from a serial debug run to a multi-process run (or a simulated
cluster) is a one-argument change::

    session = StreamingSession(CliqueMining(4, min_size=3),
                               backend="process", window_size=100)
    counts = session.output_stream().count()
    session.submit_many(Update.add_edge(u, v) for u, v in edge_stream)
    session.flush()
    counts.value(), session.latency_summary().report()

Crash recovery falls out of the loop's order.  If the backend raises while
a window runs (a slice worker died, an algorithm threw), that window's
items are redelivered and the exception propagates: every earlier window is
already published and acked, nothing is in flight, the queue's low
watermark sits below the failed window, and nothing of it was published —
so calling :meth:`StreamingSession.run_pending` again resumes to exactly
the crash-free stream, with no dedup table to consult.
"""

from __future__ import annotations

import gc
import time
from typing import Iterable, List, Optional

from repro.core.api import MiningAlgorithm
from repro.core.metrics import Metrics
from repro.errors import WorkerCrashed
from repro.dataflow.stream import Stream
from repro.graph.adjacency import AdjacencyGraph
from repro.runtime.backend import ExecutionBackend, make_backend
from repro.runtime.stats import LatencySummary, SystemStats, summarize_latencies
from repro.store.api import GraphStore, make_store
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import MatchDelta, Timestamp, Update, WindowStats


class StreamingSession:
    """Ingress → store → queue → backend → dataflow, wired once.

    ``backend`` is either a registry name (``"serial"``, ``"process"``,
    ``"simulated"``) or a ready :class:`ExecutionBackend` instance (which
    must share this session's store and telemetry).  ``store`` is
    likewise either a registry name (``"mv"``, ``"sharded"``,
    ``"remote"``, ``"net"``) or a ready :class:`~repro.store.api.\
    GraphStore`; a named store composes with ``initial_graph``, a store
    instance does not (the instance already holds its data).  A named
    store is *owned* by the session and closed by :meth:`close`;
    ``store_addr`` points the ``net`` kind at an external
    ``repro serve-store`` server instead of an embedded loopback one and
    ``store_batch`` sets that client's records-per-``multi_get`` chunk.
    """

    def __init__(
        self,
        algorithm: MiningAlgorithm,
        backend: "str | ExecutionBackend" = "serial",
        *,
        window_size: int = 100,
        num_workers: Optional[int] = None,
        num_shards: int = 8,
        initial_graph: Optional[AdjacencyGraph] = None,
        store: "str | GraphStore | None" = None,
        store_addr: Optional[str] = None,
        store_batch: Optional[int] = None,
        gc_enabled: bool = False,
        spec=None,
        fetch_costs=None,
        telemetry=None,
        profile: bool = False,
        fault_injector=None,
    ) -> None:
        from repro.telemetry import ensure

        self.algorithm = algorithm
        self.telemetry = ensure(telemetry)
        self.profiling = profile
        self.fault_injector = fault_injector
        if isinstance(store, GraphStore):
            if initial_graph is not None:
                raise ValueError("pass either initial_graph or store, not both")
            self.store = store
            self._owns_store = False
        else:
            self.store = make_store(
                store if store is not None else "mv",
                num_shards=num_shards,
                graph=initial_graph,
                fetch_costs=fetch_costs,
                addr=store_addr,
                batch_size=store_batch,
                telemetry=telemetry,
            )
            self._owns_store = True
        self.queue = WorkQueue(telemetry=self.telemetry)
        self.ingress = IngressNode(
            self.store,
            self.queue,
            window_size=window_size,
            gc_enabled=gc_enabled,
            telemetry=self.telemetry,
        )
        if isinstance(backend, ExecutionBackend):
            self.backend = backend
        else:
            self.backend = make_backend(
                backend,
                self.store,
                algorithm,
                num_workers=num_workers,
                spec=spec,
                fetch_costs=fetch_costs,
                telemetry=self.telemetry,
                profile=profile,
            )
        self.window_stats: List[WindowStats] = []
        self._deltas: List[MatchDelta] = []
        self._streams: List[Stream] = []
        #: worker crashes this session recovered by queue redelivery
        self.worker_restarts = 0
        # Set-up is over: what exists now (the preloaded store above all)
        # lives as long as the session, so Python's collector need not
        # walk it on every full collection.  Process-wide; close() undoes it.
        gc.freeze()

    # -- input side ------------------------------------------------------

    def submit(self, update: Update) -> None:
        self.ingress.submit(update)

    def submit_many(self, updates: Iterable[Update]) -> None:
        self.ingress.submit_many(updates)

    def submit_graph(self, graph: AdjacencyGraph) -> None:
        """Submit ``graph`` as an addition stream: every vertex with its
        label, then every edge in key order with its label and direction."""
        for v in sorted(graph.vertices()):
            self.submit(Update.add_vertex(v, graph.vertex_label(v)))
        self.submit_many(
            Update.add_edge(u, v, graph.edge_label(u, v), graph.edge_direction(u, v))
            for u, v in graph.sorted_edges()
        )

    def flush(self) -> List[MatchDelta]:
        """Close open windows and run every queued window on the backend.

        Returns the deltas produced by this flush (cumulative history stays
        available via :meth:`deltas`).
        """
        self.ingress.flush()
        return self.run_pending()

    def process(self, updates: Iterable[Update]) -> List[MatchDelta]:
        """Submit a batch of updates and flush; returns the new deltas."""
        self.submit_many(updates)
        return self.flush()

    # -- the streaming loop ----------------------------------------------

    def _on_poll(self, item) -> None:
        """Per-item fault-injection hook run as the queue hands out a window.

        The session injects as worker 0.  A fired crash point raises
        :class:`WorkerCrashed`; :attr:`worker_restarts` and the
        ``worker.restart`` trace marker record the recovery, then the
        exception propagates so :meth:`WorkQueue.drain_windows` redelivers
        the item to the (logically restarted) worker.
        """
        try:
            self.fault_injector.on_task_start(0, item.offset)
        except WorkerCrashed:
            self.worker_restarts += 1
            now = time.perf_counter()
            self.telemetry.tracer.record(
                "worker.restart", now, now, offset=item.offset, ts=item.timestamp
            )
            raise

    def run_pending(self) -> List[MatchDelta]:
        """Run every queued window: backend, then publish, then ack.

        A window's deltas reach the delta log and the attached streams only
        after the backend finished the whole window, and its queue items
        are acked only after that.  If the backend raises, the window's
        items are redelivered and the exception propagates; calling
        :meth:`run_pending` again resumes with that window.

        With telemetry enabled each window runs inside a ``window`` span
        opened on this thread, the one that runs the tasks, so task spans
        (and the process workers' absorbed spans) parent under it.
        """
        new_deltas: List[MatchDelta] = []
        tracer = self.telemetry.tracer
        on_poll = self._on_poll if self.fault_injector is not None else None
        for ts, items in self.queue.drain_windows(on_poll):
            tasks = [(ts, item.update) for item in items]
            try:
                with tracer.span("window", ts=ts, updates=len(tasks)) as span:
                    start = time.perf_counter()
                    deltas = self.backend.run_tasks(tasks)
                    elapsed = time.perf_counter() - start
                    span.set(deltas=len(deltas), seconds=elapsed)
            except BaseException:
                self.queue.redeliver_all([item.offset for item in items])
                raise
            self.window_stats.append(
                WindowStats.from_deltas(ts, len(tasks), deltas, elapsed)
            )
            self._deltas.extend(deltas)
            for stream in self._streams:
                stream.push_deltas(deltas)
            new_deltas.extend(deltas)
        return new_deltas

    # -- output side -----------------------------------------------------

    def output_stream(self) -> Stream:
        """A dataflow source fed automatically after each flush.

        With telemetry enabled the stream (and every operator later
        attached to it) counts its records in
        ``repro_dataflow_records_total{operator=...}``.
        """
        stream = Stream.source()
        if self.telemetry.enabled:
            stream.bind_telemetry(self.telemetry.registry, operator="source")
        self._streams.append(stream)
        return stream

    def deltas(self) -> List[MatchDelta]:
        """Every delta emitted so far, in window / task order."""
        return list(self._deltas)

    def live_matches(self) -> set:
        """Replay the delta history into the current live match set."""
        from repro.core.engine import collect_matches

        return collect_matches(self._deltas)

    # -- introspection ---------------------------------------------------

    def metrics(self) -> Metrics:
        """Merged worker metrics: operation counts only.  Per-window wall
        time is in :attr:`window_stats`; seconds per operation come from an
        :class:`~repro.core.metrics.OperationTimer` attached to an
        explorer."""
        return self.backend.metrics()

    def stats(self) -> SystemStats:
        """Component counters in one snapshot (the text dashboard)."""
        return SystemStats.collect(self)

    def latency_summary(self) -> LatencySummary:
        """p50/p95/p99/max over this session's per-window wall seconds."""
        return summarize_latencies([w.wall_seconds for w in self.window_stats])

    def collect_registry(self):
        """A fresh :class:`~repro.telemetry.MetricsRegistry` snapshot.

        Builds a new registry on every call (so it is idempotent): the
        session's live registry, which holds the clock readings its
        components and its backend's engines record, is merged in once,
        then every count the components keep is projected on top
        (:func:`~repro.telemetry.bridge.session_to_registry`).  With
        telemetry disabled the counts read the same; only the clock
        readings are missing.
        """
        from repro.telemetry import MetricsRegistry
        from repro.telemetry.bridge import session_to_registry

        out = MetricsRegistry()
        if self.telemetry.enabled:
            out.merge(self.telemetry.registry)
        session_to_registry(out, self)
        return out

    def collect_profile(self):
        """Merged :class:`~repro.telemetry.ExplorationProfile` snapshot.

        Builds a fresh profile on every call (idempotent) by merging the
        backend's per-worker profiles key-wise; the merge is commutative,
        so the result is independent of worker scheduling.  Returns an
        empty profile when the session was built without ``profile=True``.
        """
        from repro.telemetry import ExplorationProfile

        merged = ExplorationProfile()
        for worker_profile in self.backend.worker_profiles():
            merged.merge(worker_profile)
        return merged

    def run_report(self, top_k: int = 5):
        """A :class:`~repro.telemetry.report.RunReport` for this session."""
        from repro.telemetry.report import build_report

        return build_report(
            self.collect_profile(),
            self.window_stats,
            meta={
                "backend": self.backend.name,
                "store": self.store.kind,
                "algorithm": type(self.algorithm).__name__,
            },
            store_stats=self.store.store_stats(),
            top_k=top_k,
        )

    def export_trace(self, out) -> int:
        """Write the buffered trace as JSON lines; returns spans written."""
        return self.telemetry.tracer.export_jsonl(out)

    def export_folded(self, out) -> int:
        """Write the buffered trace as folded stacks; returns stack count.

        The folded-stack (flamegraph) format is one ``root;child;leaf N``
        line per distinct stack; see :mod:`repro.telemetry.flame`.
        """
        from repro.telemetry.flame import export_folded

        return export_folded(self.telemetry.tracer.records(), out)

    def snapshot(self, ts: Optional[Timestamp] = None) -> AdjacencyGraph:
        """Materialize the graph as of ``ts`` (default: latest)."""
        return self.store.as_adjacency(
            self.store.latest_timestamp if ts is None else ts
        )

    def close(self) -> None:
        self.backend.close()
        if self._owns_store:
            self.store.close()
        gc.unfreeze()

    # -- static execution ------------------------------------------------

    @classmethod
    def run_static(
        cls,
        graph: AdjacencyGraph,
        algorithm: MiningAlgorithm,
        backend: "str | ExecutionBackend" = "serial",
        **kwargs,
    ) -> List[MatchDelta]:
        """Mine a static graph through the full pipeline, on any backend.

        Mirrors :meth:`TesseractEngine.run_static` (paper §6.2.1): every
        edge, with its label and direction, becomes an addition update in
        one snapshot window (:meth:`submit_graph`), and the NEW deltas are
        exactly the match set — but here the window flows through
        ingress, queue, and the chosen backend.
        """
        session = cls(
            algorithm,
            backend,
            window_size=max(1, graph.num_edges()),
            **kwargs,
        )
        try:
            session.submit_graph(graph)
            return session.flush()
        finally:
            session.close()

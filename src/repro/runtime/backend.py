"""Pluggable execution backends: one task-running contract, four executors.

One mining engine over interchangeable deployments, the paper's own
layering (EuroSys 2021 sections 4-5): the executor side of the pipeline is
one interface, and what differs between a debug run, a multi-process run
and a simulated cluster is only which adapter sits behind it.

An :class:`ExecutionBackend` runs a batch of independent exploration tasks
(each is one ``(timestamp, EdgeUpdate)`` pair — tasks are independent by
construction, paper §4.5) and returns the match deltas *in task order*, so
every backend produces a byte-identical delta stream for the same input.
The streaming loop that feeds backends window by window lives in
:class:`~repro.runtime.session.StreamingSession`.

Backends:

``serial``
    One engine, one thread.  The reference executor; lowest overhead for
    small windows and the baseline all others must match exactly.

``thread``
    N worker engines on real threads.  Architecturally faithful to the
    paper's worker loop but GIL-bound: use it to exercise concurrency
    (locking, nondeterministic interleaving) rather than for speedup.

``process``
    N processes per window, the caller being one of them: each mines a
    stride slice of the window on one engine over its own copy of the
    multiversioned store (the paper's workers likewise keep an in-memory
    graph copy and no shared soft state).  Real CPU parallelism; workers
    start per window, so it is safe for *evolving* stores.

``simulated``
    Executes every task once on one host while routing store reads through
    per-machine :class:`~repro.store.remote.RemoteStoreClient` caches and
    advancing per-worker simulated clocks — real deltas, estimated
    multi-machine makespan.  Because tasks are independent, executing them
    in worker-clock order on one host is behaviourally identical to a real
    cluster run, and the makespan is grounded in per-task *measured* work
    rather than modeled work units; its agreement with the trace-replay
    simulator (:mod:`repro.runtime.costmodel`, no shared code path) is a
    consistency check the benchmarks assert.
"""

from __future__ import annotations

import abc
import heapq
import multiprocessing as mp
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.api import MiningAlgorithm
from repro.core.engine import TesseractEngine
from repro.core.explore import Explorer
from repro.core.metrics import Metrics
from repro.errors import WorkerCrashed
from repro.runtime.cluster import ClusterSpec
from repro.store.api import GraphStore
from repro.store.remote import FetchCosts, RemoteStoreClient
from repro.store.snapshot import ExplorationView
from repro.telemetry import (
    NULL_TELEMETRY,
    ExplorationProfile,
    MetricsRegistry,
    Telemetry,
    ensure,
)
from repro.telemetry.bridge import net_delta_to_registry
from repro.types import EdgeUpdate, MatchDelta, TaskTrace, Timestamp

#: One unit of backend work: explore a single edge update at a timestamp.
Task = Tuple[Timestamp, EdgeUpdate]

#: Names accepted by :func:`make_backend` and the CLI ``--backend`` flag.
BACKEND_NAMES = ("serial", "thread", "process", "simulated")


class ExecutionBackend(abc.ABC):
    """Runs batches of independent exploration tasks over a shared store.

    The contract every adapter honours:

    * :meth:`run_tasks` returns deltas in task order — identical across
      backends for identical inputs;
    * :meth:`metrics` returns a merged, cumulative :class:`Metrics` over
      all workers, deterministic regardless of execution interleaving;
    * workers share no soft state; the backend may be invoked repeatedly
      as the underlying store evolves between calls.

    Telemetry: each worker engine records into its **own**
    :class:`~repro.telemetry.MetricsRegistry` (so concurrent workers never
    contend on shared instruments); :meth:`worker_registries` exposes them
    for order-independent merging at snapshot time.  Spans from every
    worker land on the session's shared (thread-safe) tracer; the process
    backend ships its spans back over the same channel as its merged
    metrics.
    """

    #: the registry name of this backend ("serial", "thread", ...)
    name: str = "?"

    @abc.abstractmethod
    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        """Execute every task, returning their deltas concatenated in order."""

    @abc.abstractmethod
    def metrics(self) -> Metrics:
        """Merged cumulative metrics of all workers (a fresh snapshot)."""

    def traces(self) -> List[TaskTrace]:
        """Per-task traces, if tracing was enabled (default: none)."""
        return []

    def worker_registries(self) -> List[MetricsRegistry]:
        """Per-worker metric registries to merge at snapshot time."""
        return []

    def worker_profiles(self) -> List[ExplorationProfile]:
        """Per-worker exploration profiles to merge at collection time.

        Profiles merge key-wise (per attributed update), so the merged
        result is identical regardless of which worker ran which task —
        the same order-independence contract as :meth:`worker_registries`.
        Whether a worker profiles is decided once, from the ``profile``
        flag every backend takes: its engine is handed a profile or none.
        """
        return []

    @staticmethod
    def _worker_telemetry(telemetry) -> "Telemetry":
        """A per-worker telemetry view: shared tracer, private registry.

        Disabled telemetry coalesces onto :data:`NULL_TELEMETRY`, so
        callers branch on ``.enabled`` rather than ``is None`` (RL004).
        """
        telemetry = ensure(telemetry)
        if not telemetry.enabled:
            return telemetry
        return Telemetry(tracer=telemetry.tracer, registry=MetricsRegistry())

    def close(self) -> None:
        """Release worker resources; the backend may not be reused after."""


class SerialBackend(ExecutionBackend):
    """The reference executor: one :class:`TesseractEngine`, in order."""

    name = "serial"

    def __init__(
        self,
        store: GraphStore,
        algorithm: MiningAlgorithm,
        metrics: Optional[Metrics] = None,
        trace_tasks: bool = False,
        telemetry=None,
        profile: bool = False,
    ) -> None:
        self._worker_tel = self._worker_telemetry(telemetry)
        self._profiling = profile
        self.engine = TesseractEngine(
            store,
            algorithm,
            metrics=metrics,
            trace_tasks=trace_tasks,
            telemetry=self._worker_tel,
            profile=ExplorationProfile() if profile else None,
        )

    def worker_registries(self) -> List[MetricsRegistry]:
        return [self._worker_tel.registry] if self._worker_tel.enabled else []

    def worker_profiles(self) -> List[ExplorationProfile]:
        return [self.engine.explorer.profile] if self._profiling else []

    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        deltas: List[MatchDelta] = []
        for ts, update in tasks:
            deltas.extend(self.engine.process_update(ts, update))
        return deltas

    def metrics(self) -> Metrics:
        merged = Metrics()
        merged.merge(self.engine.metrics)
        return merged

    def traces(self) -> List[TaskTrace]:
        return list(self.engine.traces)


class ThreadBackend(ExecutionBackend):
    """N engines on real threads; output re-assembled in task order.

    Each worker owns an engine (no shared soft state); a shared cursor
    hands out task indices, and results land in an index-addressed slot
    table, so the emitted delta stream is independent of thread timing.
    An exception from the algorithm stops the hand-out and is re-raised
    in the caller once every worker has returned.
    """

    name = "thread"

    def __init__(
        self,
        store: GraphStore,
        algorithm: MiningAlgorithm,
        num_workers: int = 2,
        trace_tasks: bool = False,
        telemetry=None,
        profile: bool = False,
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be positive")
        self.num_workers = num_workers
        self._worker_tels = [
            self._worker_telemetry(telemetry) for _ in range(num_workers)
        ]
        self._profiling = profile
        self.engines = [
            TesseractEngine(
                store,
                algorithm,
                metrics=Metrics(),
                trace_tasks=trace_tasks,
                telemetry=self._worker_tels[w],
                worker_label=w,
                profile=ExplorationProfile() if profile else None,
            )
            for w in range(num_workers)
        ]

    def worker_registries(self) -> List[MetricsRegistry]:
        return [tel.registry for tel in self._worker_tels if tel.enabled]

    def worker_profiles(self) -> List[ExplorationProfile]:
        if not self._profiling:
            return []
        return [engine.explorer.profile for engine in self.engines]

    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        if not tasks:
            return []
        slots: List[Optional[List[MatchDelta]]] = [None] * len(tasks)
        cursor = iter(range(len(tasks)))
        cursor_lock = threading.Lock()
        errors: List[Exception] = []

        def loop(worker_id: int) -> None:
            engine = self.engines[worker_id]
            while not errors:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                ts, update = tasks[index]
                try:
                    slots[index] = engine.process_update(ts, update)
                except Exception as exc:
                    # a thread's exception dies with it: hand it to the caller
                    errors.append(exc)

        threads = [
            threading.Thread(target=loop, args=(w,), name=f"backend-worker-{w}")
            for w in range(min(self.num_workers, len(tasks)))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        out: List[MatchDelta] = []
        for slot in slots:
            out.extend(slot or [])
        return out

    def metrics(self) -> Metrics:
        merged = Metrics()
        for engine in self.engines:
            merged.merge(engine.metrics)
        return merged

    def traces(self) -> List[TaskTrace]:
        out: List[TaskTrace] = []
        for engine in self.engines:
            out.extend(engine.traces)
        return out


# -- process backend ---------------------------------------------------------


def _mine_slice(
    tasks: Sequence[Task],
    store: GraphStore,
    algorithm: MiningAlgorithm,
    telemetry_on: bool,
    profile_on: bool,
):
    """Mine one worker's slice of a window on one engine; build its reply.

    The reply is the single message a slice worker sends per window:
    ``(per-task delta lists in slice order, Metrics, spans, registry,
    profile)``.  With telemetry off the slots ship the inert null registry
    and an empty span list, with profiling off ``None`` — one shape either
    way.
    """
    # One engine where there used to be one (with a 256-span ring) per
    # task: sized so that no span kept then is dropped now.
    telemetry = (
        Telemetry(trace_capacity=256 * len(tasks)) if telemetry_on else NULL_TELEMETRY
    )
    profile = ExplorationProfile() if profile_on else None
    engine = TesseractEngine(
        store,
        algorithm,
        telemetry=telemetry,
        worker_label=os.getpid(),
        profile=profile,
    )
    deltas = [engine.process_update(ts, update) for ts, update in tasks]
    if telemetry_on:
        # Ship this worker's own wire activity as additive gauges, or its
        # RPC counts vanish from the session's repro_net_* gauges.
        net_delta_to_registry(telemetry.registry, store)
    spans = telemetry.tracer.records()
    return deltas, engine.metrics, spans, telemetry.registry, profile


def _slice_worker(conn, *slice_args) -> None:
    """Entry point of a slice worker process: one slice in, one message out.

    An exception from the algorithm travels back in place of the reply,
    carrying the worker's traceback text the way ``Pool.map`` ships it.
    """
    try:
        reply = _mine_slice(*slice_args)
    except Exception as exc:
        from multiprocessing.pool import ExceptionWithTraceback  # 2 MB: failures only
        reply = ExceptionWithTraceback(exc, exc.__traceback__)
    with conn:
        conn.send(reply)


class ProcessBackend(ExecutionBackend):
    """``num_processes`` processes per window, the caller being worker 0.

    A window of ``len(tasks) >= min_parallel`` is cut into
    ``n = min(num_processes, len(tasks))`` stride slices and ``n - 1``
    slice workers are started (fork where available, else spawn).  Worker
    ``w`` mines ``tasks[w::n]`` on **one** engine against its own copy of
    the store as it stands now — so batches may run against an *evolving*
    store — and sends **one** message (see :func:`_mine_slice`).  The
    caller meanwhile mines slice 0 on its inline engine, then reads each
    message, reassembles the deltas by task index and joins every child:
    workers are reaped every window.  Smaller windows run wholly on the
    inline engine, which shares this backend's metrics, registry and
    profile — counters never silently vanish.  Slice workers record no
    task traces, so this backend takes no ``trace_tasks``.
    """

    name = "process"

    def __init__(
        self,
        store: GraphStore,
        algorithm: MiningAlgorithm,
        num_processes: Optional[int] = None,
        metrics: Optional[Metrics] = None,
        min_parallel: int = 4,
        telemetry=None,
        profile: bool = False,
    ) -> None:
        self.store = store
        self.algorithm = algorithm
        self.num_processes = num_processes or max(1, (os.cpu_count() or 2) - 1)
        self.min_parallel = min_parallel
        self._metrics = metrics if metrics is not None else Metrics()
        self.telemetry = ensure(telemetry)
        # The inline engine records into these directly and each worker's
        # message merges into them — one merged view either way (the null
        # registry swallows merges when telemetry is off).
        self._worker_tel = self._worker_telemetry(telemetry)
        self._profiling = profile
        self._inline = TesseractEngine(
            store,
            algorithm,
            metrics=self._metrics,
            telemetry=self._worker_tel,
            profile=ExplorationProfile() if profile else None,
        )

    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        if not tasks:
            return []
        n = min(self.num_processes, len(tasks))
        if len(tasks) < self.min_parallel:
            n = 1
        ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        switches = (self.telemetry.enabled, self._profiling)
        slots: List[List[MatchDelta]] = [[]] * len(tasks)
        workers = []
        try:
            for w in range(1, n):
                receiver, sender = ctx.Pipe(duplex=False)
                worker = ctx.Process(
                    target=_slice_worker,
                    args=(sender, tasks[w::n], self.store, self.algorithm, *switches),
                )
                worker.start()
                # only the child holds the write end now: its death reads as EOF
                sender.close()
                workers.append((worker, receiver))
            slots[0::n] = [
                self._inline.process_update(ts, update) for ts, update in tasks[0::n]
            ]
            for w, (_, receiver) in enumerate(workers, start=1):
                try:
                    reply = receiver.recv()
                except EOFError:
                    # w is also the window index of its slice's first task
                    raise WorkerCrashed(w, w) from None
                if isinstance(reply, Exception):
                    raise reply
                slots[w::n], metrics, spans, registry, profile = reply
                self._metrics.merge(metrics)
                # Re-parent the worker's spans under the caller's current
                # span (the session's open window span).
                self.telemetry.tracer.absorb(spans)
                self._worker_tel.registry.merge(registry)
                if self._profiling:
                    self._inline.explorer.profile.merge(profile)
        except BaseException:
            for worker, _ in workers:
                worker.terminate()  # its reply is moot: do not wait for it
            raise
        finally:
            for worker, receiver in workers:
                receiver.close()
                worker.join()
        return [delta for slot in slots for delta in slot]

    def metrics(self) -> Metrics:
        merged = Metrics()
        merged.merge(self._metrics)
        return merged

    def worker_registries(self) -> List[MetricsRegistry]:
        return [self._worker_tel.registry] if self._worker_tel.enabled else []

    def worker_profiles(self) -> List[ExplorationProfile]:
        return [self._inline.explorer.profile] if self._profiling else []


@dataclass
class DeploymentResult:
    """Outcome of one window on the simulated cluster."""

    deltas: List[MatchDelta]
    makespan_seconds: float
    total_busy_seconds: float
    tasks: int
    per_machine_fetches: Dict[int, int]
    per_worker_busy: List[float] = field(default_factory=list)

    @property
    def utilization(self) -> float:
        """Mean fraction of the makespan the workers spent busy."""
        if not self.per_worker_busy or self.makespan_seconds == 0:
            return 0.0
        return self.total_busy_seconds / (
            len(self.per_worker_busy) * self.makespan_seconds
        )

    def speedup_over(self, other: "DeploymentResult") -> float:
        return other.makespan_seconds / self.makespan_seconds


class SimulatedBackend(ExecutionBackend):
    """A simulated multi-machine cluster: real execution, simulated clocks.

    Every task executes exactly once (deltas are exact) on the explorer of
    whichever simulated worker is idle earliest; its store reads go through
    that worker's machine's :class:`~repro.store.remote.RemoteStoreClient`
    and are charged fetch latency, and the worker's clock advances by the
    measured work.  :attr:`last_result` holds the latest window's
    :class:`DeploymentResult` (makespan, utilization, fetches).  Machine
    caches are dropped between windows — cached vertex records are soft
    state (paper §5.5) and may be stale once the store has evolved.  Its
    cost model prices tasks itself, so it takes no ``trace_tasks``.
    """

    name = "simulated"

    #: simulated seconds per engine work unit, per queue pull, per delta emitted
    seconds_per_work_unit = 2e-6
    dequeue_seconds = 1e-6
    emit_seconds = 0.5e-6

    def __init__(
        self,
        store: GraphStore,
        algorithm: MiningAlgorithm,
        spec: Optional[ClusterSpec] = None,
        fetch_costs: Optional[FetchCosts] = None,
        telemetry=None,
        profile: bool = False,
    ) -> None:
        if spec is None:
            spec = ClusterSpec(num_machines=2, workers_per_machine=2)
        self.spec = spec
        self.telemetry = ensure(telemetry)
        costs = fetch_costs if fetch_costs is not None else FetchCosts()
        # One store client per machine (its workers share the cache).
        self.clients = [
            RemoteStoreClient(
                store, costs=costs, cache_capacity=spec.cache_capacity_per_machine
            )
            for _ in range(spec.num_machines)
        ]
        # One explorer, metrics and profile per worker: no shared soft
        # state; all merge order-independently at snapshot time.
        self._profiling = profile
        self._explorers = [
            Explorer(
                algorithm,
                metrics=Metrics(),
                profile=ExplorationProfile() if profile else None,
            )
            for _ in range(spec.total_workers)
        ]
        self.last_result: Optional[DeploymentResult] = None

    def _run_task(self, explorer, client, ts, update) -> Tuple[List[MatchDelta], float]:
        """Explore one update; returns its deltas and simulated seconds."""
        work_before = explorer.metrics.work_units()
        fetch_before = client.log.simulated_seconds
        out = explorer.explore_update(ExplorationView(client, ts), update)
        return out, (
            self.dequeue_seconds
            + (explorer.metrics.work_units() - work_before) * self.seconds_per_work_unit
            + (client.log.simulated_seconds - fetch_before)
            + len(out) * self.emit_seconds
        )

    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        """Run the window; the earliest-idle simulated worker pulls next."""
        if not tasks:
            return []
        for client in self.clients:
            client.drop_cache()
        spec = self.spec
        # (clock, worker_id) min-heap; all start idle at 0, already a heap.
        idle: List[Tuple[float, int]] = [(0.0, w) for w in range(spec.total_workers)]
        busy = [0.0] * spec.total_workers
        queue_free_at = 0.0
        deltas: List[MatchDelta] = []
        tracer = self.telemetry.tracer
        for ts, update in tasks:
            clock, worker = heapq.heappop(idle)
            machine = worker // spec.workers_per_machine
            explorer, client = self._explorers[worker], self.clients[machine]
            start = max(clock, queue_free_at)
            queue_free_at = start + self.dequeue_seconds
            if self.telemetry.enabled:
                with tracer.span(
                    "task",
                    ts=ts,
                    u=update.u,
                    v=update.v,
                    added=update.added,
                    worker=worker,
                    machine=machine,
                ) as span:
                    out, duration = self._run_task(explorer, client, ts, update)
                    span.set(deltas=len(out), simulated_seconds=duration)
            else:
                out, duration = self._run_task(explorer, client, ts, update)
            deltas.extend(out)
            busy[worker] += duration
            heapq.heappush(idle, (start + duration, worker))
        self.last_result = DeploymentResult(
            deltas=deltas,
            makespan_seconds=max(clock for clock, _ in idle),
            total_busy_seconds=sum(busy),
            tasks=len(tasks),
            per_machine_fetches={
                m: client.log.fetches for m, client in enumerate(self.clients)
            },
            per_worker_busy=busy,
        )
        return deltas

    def metrics(self) -> Metrics:
        merged = Metrics()
        for explorer in self._explorers:
            merged.merge(explorer.metrics)
        return merged

    def worker_profiles(self) -> List[ExplorationProfile]:
        if not self._profiling:
            return []
        return [explorer.profile for explorer in self._explorers]


def make_backend(
    kind: str,
    store: GraphStore,
    algorithm: MiningAlgorithm,
    *,
    num_workers: Optional[int] = None,
    metrics: Optional[Metrics] = None,
    trace_tasks: bool = False,
    spec=None,
    fetch_costs=None,
    telemetry=None,
    profile: bool = False,
) -> ExecutionBackend:
    """Construct a backend by registry name (see :data:`BACKEND_NAMES`).

    Only ``serial`` and ``thread`` record task traces; ``trace_tasks`` on
    another backend is a ``ValueError`` rather than an empty trace list.
    """
    if trace_tasks and kind in ("process", "simulated"):
        raise ValueError(f"the {kind} backend records no task traces")
    if kind == "serial":
        return SerialBackend(
            store,
            algorithm,
            metrics=metrics,
            trace_tasks=trace_tasks,
            telemetry=telemetry,
            profile=profile,
        )
    if kind == "thread":
        return ThreadBackend(
            store,
            algorithm,
            num_workers=num_workers or 2,
            trace_tasks=trace_tasks,
            telemetry=telemetry,
            profile=profile,
        )
    if kind == "process":
        return ProcessBackend(
            store,
            algorithm,
            num_processes=num_workers,
            metrics=metrics,
            telemetry=telemetry,
            profile=profile,
        )
    if kind == "simulated":
        return SimulatedBackend(
            store,
            algorithm,
            spec=spec,
            fetch_costs=fetch_costs,
            telemetry=telemetry,
            profile=profile,
        )
    raise ValueError(
        f"unknown backend {kind!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )

"""Pluggable execution backends: one task-running contract, three executors.

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
    cluster run, and the makespan is grounded in each task's measured work.
    It is the repository's one cluster model: the paper-table benchmarks
    run their whole stream through it.
"""

from __future__ import annotations

import abc
import multiprocessing as mp
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.api import MiningAlgorithm
from repro.core.engine import TesseractEngine
from repro.core.explore import Explorer
from repro.core.metrics import Metrics
from repro.errors import WorkerCrashed
from repro.runtime.cluster import ClusterSpec
from repro.runtime.scheduler import DynamicScheduler
from repro.store.api import GraphStore
from repro.store.remote import FetchCosts, RemoteStoreClient
from repro.store.snapshot import ExplorationView
from repro.telemetry import NULL_TELEMETRY, ExplorationProfile, Telemetry, ensure
from repro.telemetry.bridge import net_delta_to_registry
from repro.types import EdgeUpdate, MatchDelta, Timestamp

#: One unit of backend work: explore a single edge update at a timestamp.
Task = Tuple[Timestamp, EdgeUpdate]

#: Names accepted by :func:`make_backend` and the CLI ``--backend`` flag.
BACKEND_NAMES = ("serial", "process", "simulated")


class ExecutionBackend(abc.ABC):
    """Runs batches of independent exploration tasks over a shared store.

    The contract every adapter honours:

    * :meth:`run_tasks` returns deltas in task order — identical across
      backends for identical inputs;
    * :meth:`metrics` returns a merged, cumulative :class:`Metrics` over
      all workers, deterministic regardless of execution interleaving;
    * workers share no soft state; the backend may be invoked repeatedly
      as the underlying store evolves between calls.

    Telemetry: engines run on the session's thread and record into the
    session's own :class:`~repro.telemetry.Telemetry` — one registry, and
    spans inside the session's open ``window`` span.  The process backend
    ships each slice worker's registry and spans back over the same
    channel as its metrics and merges them straight into it.
    """

    #: the registry name of this backend ("serial", "process", ...)
    name: str = "?"

    @abc.abstractmethod
    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        """Execute every task, returning their deltas concatenated in order."""

    @abc.abstractmethod
    def metrics(self) -> Metrics:
        """Merged cumulative metrics of all workers (a fresh snapshot)."""

    def worker_profiles(self) -> List[ExplorationProfile]:
        """Per-worker exploration profiles to merge at collection time.

        Profiles merge key-wise (per attributed update), so the merged
        result is identical regardless of which worker ran which task.
        Whether a worker profiles is decided once, from the ``profile``
        flag every backend takes: its engine is handed a profile or none.
        """
        return []

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
        telemetry=None,
        profile: bool = False,
    ) -> None:
        self._profiling = profile
        self.engine = TesseractEngine(
            store,
            algorithm,
            metrics=metrics,
            telemetry=telemetry,
            profile=ExplorationProfile() if profile else None,
        )

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
    inline engine, which shares this backend's metrics and profile and the
    session's registry — counters never silently vanish.  ``None`` for
    ``num_processes`` means one fewer than the CPU count; below 1 is a
    ``ValueError``.
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
        if num_processes is None:
            num_processes = max(1, (os.cpu_count() or 2) - 1)
        elif num_processes < 1:
            raise ValueError(f"num_processes must be at least 1, got {num_processes}")
        self.num_processes = num_processes
        self.min_parallel = min_parallel
        self._metrics = metrics if metrics is not None else Metrics()
        # The inline engine records into these directly and each worker's
        # message merges into them — one merged view either way (the null
        # registry swallows merges when telemetry is off).
        self.telemetry = ensure(telemetry)
        self._profiling = profile
        self._inline = TesseractEngine(
            store,
            algorithm,
            metrics=self._metrics,
            telemetry=self.telemetry,
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
                self.telemetry.registry.merge(registry)
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

    def worker_profiles(self) -> List[ExplorationProfile]:
        return [self._inline.explorer.profile] if self._profiling else []


@dataclass
class DeploymentResult:
    """Outcome of one :meth:`SimulatedBackend.run_tasks` call (a window)."""

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
    the simulated worker ``scheduler`` picks — by default
    :class:`~repro.runtime.scheduler.DynamicScheduler`, whichever worker is
    idle earliest; its store reads go through that worker's machine's
    :class:`~repro.store.remote.RemoteStoreClient` and are charged fetch
    latency, and the worker's clock advances by the measured work.
    :attr:`last_result` holds the latest window's :class:`DeploymentResult`
    (makespan, utilization, fetches).  Machine caches are dropped between
    windows — cached vertex records are soft state (paper §5.5) and may be
    stale once the store has evolved.
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
        scheduler=None,
    ) -> None:
        if spec is None:
            spec = ClusterSpec(num_machines=2, workers_per_machine=2)
        self.spec = spec
        self.scheduler = scheduler if scheduler is not None else DynamicScheduler()
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
        """Run the window; the scheduler picks the worker for each task."""
        if not tasks:
            return []
        for client in self.clients:
            client.drop_cache()
        spec = self.spec
        select = self.scheduler.select
        available = [0.0] * spec.total_workers
        busy = [0.0] * spec.total_workers
        queue_free_at = 0.0
        deltas: List[MatchDelta] = []
        tracer = self.telemetry.tracer
        for index, (ts, update) in enumerate(tasks):
            worker = select(update, index, available)
            machine = worker // spec.workers_per_machine
            explorer, client = self._explorers[worker], self.clients[machine]
            start = max(available[worker], queue_free_at)
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
            available[worker] = start + duration
        self.last_result = DeploymentResult(
            deltas=deltas,
            makespan_seconds=max(available),
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
    spec=None,
    telemetry=None,
    profile: bool = False,
) -> ExecutionBackend:
    """Construct a backend by registry name (see :data:`BACKEND_NAMES`)."""
    if kind == "serial":
        return SerialBackend(
            store, algorithm, metrics=metrics, telemetry=telemetry, profile=profile
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
            telemetry=telemetry,
            profile=profile,
        )
    raise ValueError(
        f"unknown backend {kind!r}; expected one of {', '.join(BACKEND_NAMES)}"
    )

"""Pluggable execution backends: one task-running contract, four executors.

Historically the repo had four disjoint ways to execute exploration tasks —
the serial :class:`~repro.core.engine.TesseractEngine`, the threaded
:class:`~repro.runtime.worker.WorkerPool`, the process-based
``MultiprocessRunner``, and the :class:`~repro.runtime.distributed.\
SimulatedDeployment` — each re-implementing queue draining, window handling,
and metrics accumulation.  This module collapses the executor side of that
into one interface mirroring the paper's own layering: a single mining
engine over interchangeable deployments (EuroSys 2021 §4–5).

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
    multi-machine makespan.
"""

from __future__ import annotations

import abc
import multiprocessing as mp
import os
import threading
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.api import MiningAlgorithm
from repro.core.engine import TesseractEngine
from repro.core.metrics import Metrics
from repro.errors import WorkerCrashed
from repro.store.api import GraphStore
from repro.telemetry import (
    NULL_PROFILE,
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
        """
        return []

    @staticmethod
    def _worker_profile(profile_on: bool) -> ExplorationProfile:
        """A per-worker accumulator, or the shared null object when off."""
        return ExplorationProfile() if profile_on else NULL_PROFILE

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

    def record_window(self, wall_seconds: float) -> None:
        """Charge one processed window's wall time to the metrics sink.

        Called by the streaming loop after each window so ``metrics()``
        carries cumulative wall time and per-window latency samples, the
        way the serial engine's own window loop always accounted them.
        """

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
        self._profile = self._worker_profile(profile)
        self.engine = TesseractEngine(
            store,
            algorithm,
            metrics=metrics,
            trace_tasks=trace_tasks,
            telemetry=self._worker_tel,
            profile=self._profile,
        )

    def worker_registries(self) -> List[MetricsRegistry]:
        return [self._worker_tel.registry] if self._worker_tel.enabled else []

    def worker_profiles(self) -> List[ExplorationProfile]:
        return [self._profile] if self._profile.enabled else []

    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        deltas: List[MatchDelta] = []
        for ts, update in tasks:
            deltas.extend(self.engine.process_update(ts, update))
        return deltas

    def metrics(self) -> Metrics:
        merged = Metrics()
        merged.merge(self.engine.metrics)
        return merged

    def record_window(self, wall_seconds: float) -> None:
        self.engine.metrics.record_window(wall_seconds)

    def traces(self) -> List[TaskTrace]:
        return list(self.engine.traces)


class ThreadBackend(ExecutionBackend):
    """N engines on real threads; output re-assembled in task order.

    Each worker owns an engine (no shared soft state); a shared cursor
    hands out task indices, and results land in an index-addressed slot
    table, so the emitted delta stream is independent of thread timing.
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
        self._worker_profs = [
            self._worker_profile(profile) for _ in range(num_workers)
        ]
        self.engines = [
            TesseractEngine(
                store,
                algorithm,
                metrics=Metrics(),
                trace_tasks=trace_tasks,
                telemetry=self._worker_tels[w],
                worker_label=w,
                profile=self._worker_profs[w],
            )
            for w in range(num_workers)
        ]

    def worker_registries(self) -> List[MetricsRegistry]:
        return [tel.registry for tel in self._worker_tels if tel.enabled]

    def worker_profiles(self) -> List[ExplorationProfile]:
        return [p for p in self._worker_profs if p.enabled]

    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        if not tasks:
            return []
        slots: List[Optional[List[MatchDelta]]] = [None] * len(tasks)
        cursor = iter(range(len(tasks)))
        cursor_lock = threading.Lock()

        def loop(worker_id: int) -> None:
            engine = self.engines[worker_id]
            while True:
                with cursor_lock:
                    index = next(cursor, None)
                if index is None:
                    return
                ts, update = tasks[index]
                slots[index] = engine.process_update(ts, update)

        threads = [
            threading.Thread(target=loop, args=(w,), name=f"backend-worker-{w}")
            for w in range(min(self.num_workers, len(tasks)))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out: List[MatchDelta] = []
        for slot in slots:
            out.extend(slot or [])
        return out

    def metrics(self) -> Metrics:
        merged = Metrics()
        for engine in self.engines:
            merged.merge(engine.metrics)
        return merged

    def record_window(self, wall_seconds: float) -> None:
        # Wall time is a whole-pool quantity; charge it to worker 0 so the
        # merged view accumulates it exactly once.
        self.engines[0].metrics.record_window(wall_seconds)

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
    profile)``.  With telemetry or profiling off the slot ships the inert
    null object (an empty span list for the tracer) — one shape either way.
    """
    # One engine where there used to be one (with a 256-span ring) per
    # task: sized so that no span kept then is dropped now.
    telemetry = (
        Telemetry(trace_capacity=256 * len(tasks)) if telemetry_on else NULL_TELEMETRY
    )
    profile = ExplorationProfile() if profile_on else NULL_PROFILE
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
    profile — counters never silently vanish.
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
        # objects swallow merges when telemetry or profiling is off).
        self._worker_tel = self._worker_telemetry(telemetry)
        self._profile = self._worker_profile(profile)
        self._inline = TesseractEngine(
            store,
            algorithm,
            metrics=self._metrics,
            telemetry=self._worker_tel,
            profile=self._profile,
        )

    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        if not tasks:
            return []
        n = min(self.num_processes, len(tasks))
        if len(tasks) < self.min_parallel:
            n = 1
        ctx = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        switches = (self.telemetry.enabled, self._profile.enabled)
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
                self._profile.merge(profile)
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

    def record_window(self, wall_seconds: float) -> None:
        self._metrics.record_window(wall_seconds)

    def worker_registries(self) -> List[MetricsRegistry]:
        return [self._worker_tel.registry] if self._worker_tel.enabled else []

    def worker_profiles(self) -> List[ExplorationProfile]:
        return [self._profile] if self._profile.enabled else []


class SimulatedBackend(ExecutionBackend):
    """Simulated multi-machine deployment behind the backend contract.

    Wraps :class:`~repro.runtime.distributed.SimulatedDeployment`: every
    task executes exactly once (deltas are exact), while store reads are
    charged per-machine fetch latency and per-worker clocks estimate the
    cluster makespan.  Worker caches are dropped between batches — cached
    vertex records are soft state (paper §5.5) and may be stale once the
    store has evolved.
    """

    name = "simulated"

    def __init__(
        self,
        store: GraphStore,
        algorithm: MiningAlgorithm,
        spec=None,
        algorithm_factory: Optional[Callable[[], MiningAlgorithm]] = None,
        fetch_costs=None,
        telemetry=None,
        profile: bool = False,
    ) -> None:
        from repro.runtime.cluster import ClusterSpec
        from repro.runtime.distributed import SimulatedDeployment
        from repro.store.remote import FetchCosts

        if spec is None:
            spec = ClusterSpec(num_machines=2, workers_per_machine=2)
        self.spec = spec
        self.deployment = SimulatedDeployment(
            store,
            algorithm_factory if algorithm_factory is not None else (lambda: algorithm),
            spec,
            fetch_costs=fetch_costs if fetch_costs is not None else FetchCosts(),
            telemetry=telemetry,
            profile=profile,
        )
        #: per-batch deployment results (makespan, utilization, fetches)
        self.results = []

    def run_tasks(self, tasks: Sequence[Task]) -> List[MatchDelta]:
        if not tasks:
            return []
        for client in self.deployment.clients:
            client.drop_cache()
        result = self.deployment.run(tasks)
        self.results.append(result)
        return result.deltas

    def metrics(self) -> Metrics:
        merged = Metrics()
        for _, worker_metrics in self.deployment._explorers:
            merged.merge(worker_metrics)
        return merged

    def record_window(self, wall_seconds: float) -> None:
        self.deployment._explorers[0][1].record_window(wall_seconds)

    def worker_registries(self) -> List[MetricsRegistry]:
        return list(self.deployment.worker_registries)

    def worker_profiles(self) -> List[ExplorationProfile]:
        return list(self.deployment.worker_profiles)

    @property
    def last_result(self):
        return self.results[-1] if self.results else None


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
    """Construct a backend by registry name (see :data:`BACKEND_NAMES`)."""
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

"""Unit tests for execution backends, the streaming session, and
WorkQueue.drain_windows."""

import multiprocessing
import os

import pytest

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.core.metrics import Metrics
from repro.errors import WorkerCrashed
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.net.errors import TransportError
from repro.net.ops import render_top
from repro.runtime.backend import (
    BACKEND_NAMES,
    ProcessBackend,
    SerialBackend,
    make_backend,
)
from repro.runtime.session import StreamingSession
from repro.runtime.stats import LatencySummary, summarize_latencies
from repro.store.mvstore import MultiVersionStore
from repro.streaming.queue import WorkQueue
from repro.types import EdgeUpdate, Update


class TestWorkQueueDrain:
    """``drain_windows``, the queue's one consumer: a window is acked when
    the consumer asks for the next one, so a window whose body raised or
    was abandoned stays in flight, whole."""

    def _loaded_queue(self, n=4):
        """``n`` windows of one item each."""
        queue = WorkQueue()
        for i in range(n):
            queue.append(i + 1, EdgeUpdate(i, i + 100, added=True))
        return queue

    @staticmethod
    def offsets(windows):
        return [item.offset for _, items in windows for item in items]

    def test_drain_acks_every_item(self):
        queue = self._loaded_queue()
        assert self.offsets(queue.drain_windows()) == [0, 1, 2, 3]
        assert queue.is_drained()
        assert queue.acked_count() == 4

    def test_consumer_exception_leaves_the_window_in_flight(self):
        queue = self._loaded_queue(3)
        with pytest.raises(RuntimeError):
            for _, items in queue.drain_windows():
                if items[0].offset == 1:
                    raise RuntimeError("worker crashed")
        # window 1 acked; window 2 still in flight (redeliverable); 3 untouched
        assert queue.acked_count() == 1
        assert queue.in_flight_offsets() == [1]
        queue.redeliver(1)
        assert self.offsets(queue.drain_windows()) == [1, 2]
        assert queue.is_drained()

    def test_abandoned_generator_leaves_the_window_in_flight(self):
        queue = self._loaded_queue(2)
        gen = queue.drain_windows()
        _, items = next(gen)
        gen.close()
        assert queue.in_flight_offsets() == [item.offset for item in items]


class TestProcessBackendMetrics:
    def test_small_batch_fallback_keeps_caller_metrics(self):
        """Regression: <4-task batches used to mine on a throwaway engine,
        silently reporting zero counters to the caller."""
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=1)
        metrics = Metrics()
        backend = ProcessBackend(
            store, CliqueMining(3, min_size=3), num_processes=4, metrics=metrics
        )
        deltas = backend.run_tasks(
            [(1, EdgeUpdate(1, 2, added=True)), (1, EdgeUpdate(2, 3, added=True)),
             (1, EdgeUpdate(1, 3, added=True))]
        )
        assert len(deltas) == 1  # the triangle, found once
        assert metrics.explore_calls > 0
        assert metrics.emits == 1

    def test_parallel_path_merges_worker_metrics(self):
        g = erdos_renyi(16, 40, seed=7)
        store = MultiVersionStore.from_adjacency(g, ts=1)
        tasks = [(1, EdgeUpdate(u, v, added=True)) for u, v in g.sorted_edges()]
        metrics = Metrics()
        backend = ProcessBackend(
            store, CliqueMining(3, min_size=3), num_processes=2, metrics=metrics
        )
        deltas = backend.run_tasks(tasks)
        assert metrics.emits == sum(1 for d in deltas if d.is_new())
        assert metrics.explore_calls > 0


    @pytest.mark.parametrize("count", [0, -1])
    def test_worker_count_below_one_is_refused(self, count):
        """-1 used to mine ``tasks[0::-1]`` — the first task of each window
        alone — and 0 silently meant one fewer than the CPU count."""
        with pytest.raises(ValueError, match="num_processes must be at least 1"):
            ProcessBackend(MultiVersionStore(), CliqueMining(3), num_processes=count)
        with pytest.raises(ValueError, match="num_processes must be at least 1"):
            StreamingSession(CliqueMining(3), "process", num_workers=count)

    def test_no_worker_count_means_the_cpu_default(self):
        backend = ProcessBackend(MultiVersionStore(), CliqueMining(3))
        assert backend.num_processes == max(1, (os.cpu_count() or 2) - 1)


class TestLatencySummary:
    def test_percentiles(self):
        summary = summarize_latencies([0.1 * i for i in range(1, 101)])
        assert summary.windows == 100
        assert summary.p50_seconds == pytest.approx(5.1)  # nearest rank
        assert summary.p95_seconds == pytest.approx(9.5, abs=0.11)
        assert summary.p99_seconds == pytest.approx(9.9, abs=0.11)
        assert summary.p95_seconds <= summary.p99_seconds <= summary.max_seconds
        assert summary.max_seconds == pytest.approx(10.0)
        assert summary.mean_seconds == pytest.approx(5.05)
        assert "p95" in summary.report()
        assert "p99" in summary.report()

    def test_repro_top_ranks_a_sample_as_the_summary_does(self):
        """An even-length sample puts p50's rank at a half: ``repro top``
        and the session's summary round it the same way."""
        samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        summary = summarize_latencies(samples)
        view = render_top({"requests": {"get": 6}, "latencies_s": {"get": samples}})
        p50_ms, p95_ms = map(float, view.splitlines()[-1].split()[4:6])
        assert p50_ms == summary.p50_seconds * 1e3 == 3000.0
        assert p95_ms == summary.p95_seconds * 1e3 == 6000.0

    def test_empty(self):
        summary = summarize_latencies([])
        assert summary == LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert summary.report() == "no windows processed"

    def test_merge_order_independent(self):
        assert summarize_latencies([0.5, 0.1, 0.3]) == summarize_latencies(
            [0.3, 0.5, 0.1]
        )

    def test_from_window_stats(self):
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=2)
        session.process(
            Update.add_edge(u, v) for u, v in [(1, 2), (2, 3), (1, 3), (3, 4)]
        )
        summary = session.latency_summary()
        assert summary.windows == len(session.window_stats) == 2
        assert summary.max_seconds >= summary.p50_seconds > 0
        assert summary == summarize_latencies(
            [w.wall_seconds for w in session.window_stats]
        )
        session.close()


class TestTraceTasks:
    """No layer takes ``trace_tasks``: passing it is a ``TypeError``."""

    def test_engine_and_serial_backend_take_no_trace_tasks(self):
        with pytest.raises(TypeError, match="trace_tasks"):
            TesseractEngine(MultiVersionStore(), CliqueMining(3), trace_tasks=True)
        with pytest.raises(TypeError, match="trace_tasks"):
            SerialBackend(MultiVersionStore(), CliqueMining(3), trace_tasks=True)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_session_and_make_backend_take_no_trace_tasks(self, backend):
        with pytest.raises(TypeError, match="trace_tasks"):
            StreamingSession(CliqueMining(3), backend, trace_tasks=True)
        with pytest.raises(TypeError, match="trace_tasks"):
            make_backend(
                backend, MultiVersionStore(), CliqueMining(3), trace_tasks=True
            )


class TestStreamingSession:
    def test_matches_engine_drain(self):
        g = erdos_renyi(14, 35, seed=11)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=5)
        session.process(
            Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=2)
        )
        expected = collect_matches(
            TesseractEngine.run_static(g, CliqueMining(3, min_size=3))
        )
        assert session.live_matches() == expected

    def test_window_stats_recorded_per_window(self):
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=1)
        new = session.process(
            Update.add_edge(u, v) for u, v in [(1, 2), (2, 3), (1, 3)]
        )
        assert len(session.window_stats) == 3
        assert [w.timestamp for w in session.window_stats] == [1, 2, 3]
        assert sum(w.num_new for w in session.window_stats) == len(new) == 1

    def test_output_stream_fed_on_flush(self):
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=2)
        count = session.output_stream().count()
        session.process(
            Update.add_edge(u, v) for u, v in [(1, 2), (2, 3), (1, 3)]
        )
        assert count.value() == 1
        session.process([Update.delete_edge(1, 2)])
        assert count.value() == 0

    def test_run_static_equals_engine_run_static(self):
        g = erdos_renyi(12, 30, seed=13)
        engine_deltas = TesseractEngine.run_static(g, CliqueMining(3, min_size=3))
        for name in BACKEND_NAMES:
            deltas = StreamingSession.run_static(
                g, CliqueMining(3, min_size=3), name, num_workers=2
            )
            assert deltas == engine_deltas, name

    def test_run_static_closes_its_session_when_the_algorithm_raises(self, monkeypatch):
        closed = []
        close = StreamingSession.close

        def recording_close(session):
            closed.append(session)
            close(session)

        monkeypatch.setattr(StreamingSession, "close", recording_close)
        g = erdos_renyi(8, 12, seed=3)
        with pytest.raises(LookupError, match="poisoned vertex"):
            StreamingSession.run_static(g, PoisonedVertex(0), store="net")
        (session,) = closed
        # the embedded loopback server went down with its client
        with pytest.raises(TransportError):
            session.store.num_vertices()

    def test_backend_instance_must_be_usable(self):
        store = MultiVersionStore()
        backend = SerialBackend(store, CliqueMining(3, min_size=3))
        session = StreamingSession(
            CliqueMining(3, min_size=3), backend, store=store, window_size=2
        )
        session.process(Update.add_edge(u, v) for u, v in [(1, 2), (2, 3), (1, 3)])
        assert len(session.live_matches()) == 1

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            StreamingSession(CliqueMining(3), "gpu")

    @pytest.mark.parametrize("backend", ["process", "simulated"])
    def test_parallel_backend_deterministic_order(self, backend):
        """A window comes back in task order whichever worker mined a task."""
        g = erdos_renyi(15, 40, seed=17)
        store = MultiVersionStore.from_adjacency(g, ts=1)
        tasks = [(1, EdgeUpdate(u, v, added=True)) for u, v in g.sorted_edges()]
        parallel = make_backend(
            backend, store, CliqueMining(3, min_size=3), num_workers=4
        )
        serial = make_backend("serial", store, CliqueMining(3, min_size=3))
        deltas = parallel.run_tasks(tasks)
        parallel.close()
        assert deltas
        assert deltas == serial.run_tasks(tasks)

    def test_thread_backend_is_not_a_backend(self):
        assert "thread" not in BACKEND_NAMES
        with pytest.raises(ValueError, match="unknown backend 'thread'"):
            make_backend("thread", MultiVersionStore(), CliqueMining(3))


class PoisonedVertex(CliqueMining):
    """Triangles, except that any subgraph holding ``vertex`` raises."""

    def __init__(self, vertex):
        super().__init__(3, min_size=3)
        self.vertex = vertex

    def filter(self, s):
        if self.vertex in s:
            raise LookupError(f"poisoned vertex {self.vertex}")
        return super().filter(s)


class DiesOutsideCaller(CliqueMining):
    """Triangles, except that any process but ``caller`` exits on the spot."""

    def __init__(self):
        super().__init__(3, min_size=3)
        self.caller = os.getpid()

    def filter(self, s):
        if self.caller not in (None, os.getpid()):
            os._exit(3)
        return super().filter(s)


class TestProcessBackendFailures:
    """A failing slice worker surfaces in the caller and leaves no child."""

    # Three disjoint triangles on {0,1,2}, {10,11,12}, {20,21,22}, their
    # edges interleaved: with three processes, stride slice w is triangle w.
    TASKS = [
        (1, EdgeUpdate(base + u, base + v, added=True))
        for u, v in [(0, 1), (1, 2), (0, 2)]
        for base in (0, 10, 20)
    ]

    def _backend(self, algorithm):
        store = MultiVersionStore()
        for ts, update in self.TASKS:
            store.add_edge(update.u, update.v, ts)
        return ProcessBackend(store, algorithm, num_processes=3, min_parallel=1)

    def _assert_reusable(self, backend):
        """No child is left behind, and the next window mines normally."""
        assert multiprocessing.active_children() == []
        serial = make_backend("serial", backend.store, CliqueMining(3, min_size=3))
        deltas = backend.run_tasks(self.TASKS)
        assert len(deltas) == 3
        assert deltas == serial.run_tasks(self.TASKS)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("slice_index", [0, 1, 2])
    def test_algorithm_exception_keeps_type_and_worker_traceback(self, slice_index):
        # slice 0 raises in the caller itself, slices 1 and 2 in a worker
        poisoned = 10 * slice_index
        backend = self._backend(PoisonedVertex(poisoned))
        with pytest.raises(LookupError, match=f"poisoned vertex {poisoned}") as info:
            backend.run_tasks(self.TASKS)
        if slice_index:
            # what Pool.map gave: the worker's traceback text as the cause
            assert "in filter" in str(info.value.__cause__)
        backend.algorithm.vertex = None  # disarm
        self._assert_reusable(backend)

    def test_worker_exit_without_reply_raises_worker_crashed(self):
        backend = self._backend(DiesOutsideCaller())
        with pytest.raises(WorkerCrashed) as info:
            backend.run_tasks(self.TASKS)
        assert info.value.worker_id == 1
        backend.algorithm.caller = None  # disarm
        self._assert_reusable(backend)

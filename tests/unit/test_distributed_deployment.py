"""Unit tests for the execute-while-simulating backend."""

import pytest

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.runtime.backend import SimulatedBackend
from repro.runtime.cluster import ClusterSpec
from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import Update


def build_tasks(seed=0, n=16, m=40, window=4):
    g = erdos_renyi(n, m, seed=seed)
    store = MultiVersionStore()
    queue = WorkQueue()
    ingress = IngressNode(store, queue, window_size=window)
    ingress.submit_many(Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=1))
    ingress.flush()
    return g, store, [(item.timestamp, item.update) for item in queue.drain()]


def run(store, tasks, machines, workers=4, cache=10_000):
    """One window on a simulated cluster; returns its DeploymentResult."""
    spec = ClusterSpec(
        num_machines=machines,
        workers_per_machine=workers,
        cache_capacity_per_machine=cache,
    )
    backend = SimulatedBackend(store, CliqueMining(3, min_size=3), spec)
    assert backend.run_tasks(tasks) == backend.last_result.deltas
    return backend.last_result


class TestCorrectness:
    def test_output_matches_serial_engine(self):
        g, store, tasks = build_tasks()
        result = run(store, tasks, 4)
        live = collect_matches(sorted(result.deltas, key=lambda d: d.timestamp))
        expected = collect_matches(
            TesseractEngine.run_static(
                store.as_adjacency(store.latest_timestamp),
                CliqueMining(3, min_size=3),
            )
        )
        assert live == expected

    def test_output_independent_of_machine_count(self):
        g, store, tasks = build_tasks(seed=2)
        key = lambda d: (d.timestamp, d.status.value, d.subgraph.vertices)
        one = sorted(map(key, run(store, tasks, 1).deltas))
        eight = sorted(map(key, run(store, tasks, 8).deltas))
        assert one == eight

    def test_empty_tasks(self):
        g, store, _ = build_tasks(seed=3)
        backend = SimulatedBackend(store, CliqueMining(3, min_size=3))
        assert backend.run_tasks([]) == [] and backend.last_result is None


class TestSimulatedTime:
    def test_more_machines_reduce_makespan(self):
        g, store, tasks = build_tasks(seed=4, n=30, m=90, window=3)
        r1 = run(store, tasks, 1, workers=2)
        r4 = run(store, tasks, 4, workers=2)
        assert r4.makespan_seconds < r1.makespan_seconds
        assert r4.speedup_over(r1) > 1.5

    def test_utilization_bounds(self):
        g, store, tasks = build_tasks(seed=5)
        result = run(store, tasks, 2, workers=2)
        assert 0.0 < result.utilization <= 1.0

    def test_cold_caches_per_machine(self):
        g, store, tasks = build_tasks(seed=6)
        r1 = run(store, tasks, 1)
        r4 = run(store, tasks, 4)
        assert sum(r4.per_machine_fetches.values()) >= sum(
            r1.per_machine_fetches.values()
        )
        assert len(r4.per_machine_fetches) == 4

    def test_busy_time_accounted(self):
        g, store, tasks = build_tasks(seed=7)
        result = run(store, tasks, 2, workers=2)
        assert result.total_busy_seconds > 0
        assert result.makespan_seconds <= result.total_busy_seconds + 1e-9


class TestAgreementWithTraceReplay:
    def test_scaling_direction_agrees(self):
        """Two independently-built cost models must agree on the ordering
        of makespans across cluster sizes."""
        from repro.core.metrics import Metrics
        from repro.core.engine import TesseractEngine
        from repro.runtime.costmodel import ClusterSimulator

        g, store, tasks = build_tasks(seed=8, n=30, m=90, window=3)
        # trace-replay side
        metrics = Metrics()
        engine = TesseractEngine(
            store, CliqueMining(3, min_size=3), metrics=metrics, trace_tasks=True
        )
        for ts, update in tasks:
            engine.process_update(ts, update)
        replay = {
            m: ClusterSimulator(
                ClusterSpec(num_machines=m, workers_per_machine=2)
            ).simulate(engine.traces).makespan_units
            for m in (1, 4)
        }
        # execute-while-simulating side
        executed = {
            m: run(store, tasks, m, workers=2).makespan_seconds
            for m in (1, 4)
        }
        assert (replay[4] < replay[1]) == (executed[4] < executed[1])

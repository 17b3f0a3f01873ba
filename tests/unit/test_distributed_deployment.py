"""Unit tests for the execute-while-simulating backend."""

import pytest

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.runtime.backend import SimulatedBackend
from repro.runtime.cluster import ClusterSpec
from repro.runtime.scheduler import DynamicScheduler, StaticPartitionScheduler
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore, VertexRecord
from repro.store.remote import FetchCosts
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import EdgeUpdate, Update


def build_tasks(seed=0, n=16, m=40, window=4):
    g = erdos_renyi(n, m, seed=seed)
    store = MultiVersionStore()
    queue = WorkQueue()
    ingress = IngressNode(store, queue, window_size=window)
    ingress.submit_many(Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=1))
    ingress.flush()
    tasks = [(ts, update) for ts, updates in queue.drain_windows() for update in updates]
    return g, store, tasks


def simulated(store, machines, workers=4, cache=10_000, algorithm=None, **options):
    """A ``machines`` x ``workers`` simulated cluster over ``store``."""
    spec = ClusterSpec(
        num_machines=machines,
        workers_per_machine=workers,
        cache_capacity_per_machine=cache,
    )
    return SimulatedBackend(
        store, algorithm or CliqueMining(3, min_size=3), spec, **options
    )


def run(store, tasks, machines, workers=4, cache=10_000, **options):
    """One window on a simulated cluster; returns its DeploymentResult."""
    backend = simulated(store, machines, workers, cache, **options)
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


def heavy_and_light_tasks(lights=6):
    """One update closing many 4-cliques, then ``lights`` isolated edges.

    Every task sits at timestamp 2.  ``StaticPartitionScheduler`` homes
    ``(0, 1)`` and every ``(u, u + 1)`` with even ``u`` on the same one of
    two workers (their keys are all odd).
    """
    store = MultiVersionStore()
    for u in range(7):
        for v in range(u + 1, 7):
            if (u, v) != (0, 1):
                store.add_edge(u, v, ts=1)
    updates = [EdgeUpdate(0, 1, added=True)]
    updates += [EdgeUpdate(u, u + 1, added=True) for u in range(100, 100 + 2 * lights, 2)]
    for update in updates:
        store.add_edge(update.u, update.v, ts=2)
    return store, [(2, update) for update in updates]


SCHEDULERS = [DynamicScheduler, StaticPartitionScheduler]


class TestClusterModel:
    """How the simulated cluster turns measured tasks into a makespan."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_one_worker_makespan_is_its_busy_time(self, scheduler):
        g, store, tasks = build_tasks(seed=9)
        result = run(store, tasks, 1, workers=1, scheduler=scheduler())
        assert result.makespan_seconds == result.total_busy_seconds > 0

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_the_queue_serialises_dequeues(self, scheduler):
        """One pull at a time: with a pull costing far more than any task's
        work, more workers than tasks still cannot beat the queue."""
        g, store, tasks = build_tasks(seed=10)
        backend = simulated(store, 4, workers=len(tasks), scheduler=scheduler())
        backend.dequeue_seconds = 1.0
        backend.run_tasks(tasks)
        assert backend.last_result.makespan_seconds >= len(tasks) * 1.0

    def test_static_partition_straggles_on_a_heavy_update(self):
        store, tasks = heavy_and_light_tasks()
        dynamic, static = (
            run(
                store,
                tasks,
                1,
                workers=2,
                algorithm=CliqueMining(4, min_size=3),
                scheduler=scheduler(),
            )
            for scheduler in SCHEDULERS
        )
        # the same tasks on the same machine cache: only placement differs
        assert static.total_busy_seconds == pytest.approx(dynamic.total_busy_seconds)
        assert 0.0 in static.per_worker_busy  # everything landed on one worker
        assert dynamic.makespan_seconds < static.makespan_seconds
        for result in (dynamic, static):
            assert 0.0 < result.utilization <= 1.0
        assert dynamic.utilization > static.utilization

    @pytest.mark.parametrize("machines", [1, 2])
    def test_fetch_seconds_are_round_trips_without_a_per_edge_cost(self, machines):
        g, store, tasks = build_tasks(seed=11)
        costs = FetchCosts(round_trip=0.25, per_edge=0.0)
        backend = simulated(store, machines, workers=2, fetch_costs=costs)
        backend.run_tasks(tasks)
        fetches = backend.last_result.per_machine_fetches
        assert sum(fetches.values()) > 0
        for machine, client in enumerate(backend.clients):
            assert client.log.simulated_seconds == pytest.approx(fetches[machine] * 0.25)

    def test_a_machine_without_cache_fetches_on_every_read(self):
        g, store, tasks = build_tasks(seed=12)
        held = run(store, tasks, 1, cache=10_000)
        unheld = run(store, tasks, 1, cache=0)
        assert unheld.deltas == held.deltas
        assert unheld.per_machine_fetches[0] > held.per_machine_fetches[0]
        assert unheld.makespan_seconds > held.makespan_seconds

    def test_output_independent_of_scheduler(self):
        g, store, tasks = build_tasks(seed=13)
        dynamic, static = (
            run(store, tasks, 2, workers=3, scheduler=scheduler())
            for scheduler in SCHEDULERS
        )
        assert static.deltas == dynamic.deltas  # task order, whoever ran them


#: every window's (makespan, per-worker busy seconds, per-machine fetches,
#: per-machine simulated fetch seconds) on ``golden_stream()``: a change to
#: how a client fetches, holds or charges a record moves them.  The store
#: holds no vertex label, so a leaf vertex of a match is never fetched for
#: one; fetches and simulated seconds only fell from the values the store
#: read before it had capability facts (machine 0 fetches one record fewer
#: from window 5 on), which ``GOLDEN_WINDOWS_LABELLED`` still pins
GOLDEN_WINDOWS = [
    (0.0006624000000000002, (0.00046560000000000015, 0.0006614000000000001, 0.0005664, 0.0005808), ((0, 10), (1, 10)), (0.0010030000000000002, 0.0010031999999999999)),
    (0.0007109999999999998, (0.0006663000000000001, 0.0006397000000000001, 0.0007089999999999998, 0.0006911000000000004), ((0, 20), (1, 20)), (0.0020090000000000004, 0.0020098)),
    (0.0008633999999999998, (0.0007972999999999998, 0.0008623999999999999, 0.0008012000000000001, 0.0007981999999999997), ((0, 32), (1, 31)), (0.0032182, 0.0031182)),
    (0.0010591000000000008, (0.0009466000000000009, 0.0007679000000000002, 0.0008787, 0.0010561000000000008), ((0, 41), (1, 43)), (0.004127200000000001, 0.0043300000000000005)),
    (0.0017768000000000007, (0.0010581000000000006, 0.0012556999999999998, 0.0017748000000000006, 0.0011736000000000003), ((0, 54), (1, 60)), (0.005441000000000001, 0.006049400000000002)),
    (0.0022704000000000014, (0.0022704000000000014, 0.0017530000000000002, 0.0019437000000000007, 0.0019444000000000002), ((0, 73), (1, 79)), (0.007367400000000003, 0.007978000000000002)),
    (0.0021002999999999977, (0.0018115999999999996, 0.001501100000000002, 0.0015799999999999998, 0.0020972999999999977), ((0, 90), (1, 100)), (0.009092600000000004, 0.0101058)),
    (0.0015432999999999983, (0.0014638000000000016, 0.0008946000000000004, 0.0012064000000000016, 0.0015402999999999984), ((0, 103), (1, 116)), (0.010412000000000006, 0.011729)),
]


#: the same run on a store with one vertex label — outside the stream, so
#: every match and every expansion is the same, but each emitted match now
#: reads its vertices' labels through the per-machine clients
GOLDEN_WINDOWS_LABELLED = [
    (0.0006624000000000002, (0.00046560000000000015, 0.0006614000000000001, 0.0005664, 0.0005808), ((0, 10), (1, 10)), (0.0010030000000000002, 0.0010031999999999999)),
    (0.0007109999999999998, (0.0006663000000000001, 0.0006397000000000001, 0.0007089999999999998, 0.0006911000000000004), ((0, 20), (1, 20)), (0.0020090000000000004, 0.0020098)),
    (0.0008633999999999998, (0.0007972999999999998, 0.0008623999999999999, 0.0008012000000000001, 0.0007981999999999997), ((0, 32), (1, 31)), (0.0032182, 0.0031182)),
    (0.0010591000000000008, (0.0009466000000000009, 0.0007679000000000002, 0.0008787, 0.0010561000000000008), ((0, 41), (1, 43)), (0.004127200000000001, 0.0043300000000000005)),
    (0.0017768000000000007, (0.0013225000000000008, 0.0010923000000000003, 0.0017748000000000006, 0.0011736000000000003), ((0, 55), (1, 60)), (0.005542000000000002, 0.006049400000000002)),
    (0.0022704000000000014, (0.0022704000000000014, 0.0017530000000000002, 0.0019437000000000007, 0.0019444000000000002), ((0, 74), (1, 79)), (0.0074684000000000035, 0.007978000000000002)),
    (0.0021002999999999977, (0.0018115999999999996, 0.001501100000000002, 0.0015799999999999998, 0.0020972999999999977), ((0, 91), (1, 100)), (0.009193600000000005, 0.0101058)),
    (0.0015432999999999983, (0.0014638000000000016, 0.0008946000000000004, 0.0012064000000000016, 0.0015402999999999984), ((0, 104), (1, 116)), (0.010513000000000007, 0.011729)),
]


def golden_stream():
    g = erdos_renyi(24, 70, seed=11)
    edges = list(shuffled_edges(g, seed=3))
    out = [Update.add_edge(u, v) for u, v in edges]
    out += [Update.delete_edge(u, v) for u, v in edges[::4]]
    out += [Update.add_edge(u, v) for u, v in edges[:20:4]]
    return out


def cost_model_windows(store, labelled):
    """``golden_stream()`` on a 2-machine simulated cluster, one row per
    window; ``labelled`` installs one labelled record no update touches."""
    spec = ClusterSpec(
        num_machines=2, workers_per_machine=2, cache_capacity_per_machine=6
    )
    session = StreamingSession(
        CliqueMining(4, min_size=3), "simulated", window_size=12, spec=spec, store=store
    )
    if labelled:
        session.store.put_record(10_000, VertexRecord(label_history=[(1, "x")]))
    seen = []
    try:
        updates = golden_stream()
        for i in range(0, len(updates), 12):
            session.process(updates[i : i + 12])
            result = session.backend.last_result
            seen.append(
                (
                    result.makespan_seconds,
                    tuple(result.per_worker_busy),
                    tuple(sorted(result.per_machine_fetches.items())),
                    tuple(c.log.simulated_seconds for c in session.backend.clients),
                )
            )
    finally:
        session.close()
    return seen


@pytest.mark.parametrize("store", ["mv", "remote"])
def test_cost_model_pinned_window_by_window(store):
    """The simulated cluster reads only through its per-machine
    ``RemoteStoreClient``s, so their fetch charging is what ``figure6`` /
    ``table6`` measure: it must not move, to the last bit, whichever store
    the session runs on."""
    assert cost_model_windows(store, labelled=False) == GOLDEN_WINDOWS


@pytest.mark.parametrize("store", ["mv", "remote"])
def test_cost_model_pinned_window_by_window_on_a_labelled_store(store):
    """The per-machine clients forward the session store's capability
    facts: a label put into the store after the clients were built still
    brings the label reads (and their fetches) back."""
    assert cost_model_windows(store, labelled=True) == GOLDEN_WINDOWS_LABELLED

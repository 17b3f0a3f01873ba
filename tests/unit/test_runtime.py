"""Unit tests for the cluster spec, the schedulers, and fault injection."""

import pytest

from repro.errors import WorkerCrashed
from repro.runtime.cluster import ClusterSpec
from repro.runtime.fault import CrashPlan, FaultInjector
from repro.runtime.scheduler import DynamicScheduler, StaticPartitionScheduler
from repro.types import EdgeUpdate


class TestClusterSpec:
    def test_total_workers(self):
        assert ClusterSpec(num_machines=8, workers_per_machine=16).total_workers == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_machines=0)


class TestSchedulers:
    """``select(update, index, available)`` over workers' next-free clocks."""

    def test_dynamic_picks_the_earliest_available_worker(self):
        update = EdgeUpdate(1, 2, added=True)
        assert DynamicScheduler().select(update, 0, [5.0, 2.0, 3.0]) == 1
        assert DynamicScheduler().select(update, 7, [5.0, 2.0, 0.5]) == 2

    def test_dynamic_breaks_ties_to_the_lowest_worker_id(self):
        update = EdgeUpdate(1, 2, added=True)
        assert DynamicScheduler().select(update, 0, [0.0] * 4) == 0
        assert DynamicScheduler().select(update, 3, [4.0, 1.0, 1.0, 1.0]) == 1

    def test_static_partition_homes_each_edge_regardless_of_load(self):
        scheduler = StaticPartitionScheduler()
        update = EdgeUpdate(2, 4, added=True)
        home = scheduler.select(update, 0, [0.0] * 8)
        busy = [0.0] * 8
        busy[home] = 1e9
        assert scheduler.select(update, 99, busy) == home
        homes = {
            scheduler.select(EdgeUpdate(u, u + 1, added=True), 0, [0.0] * 8)
            for u in range(64)
        }
        assert len(homes) > 1  # edges spread over the workers


class TestFaultInjection:
    def test_crash_fires_once(self):
        inj = FaultInjector(CrashPlan(((0, 1),)))
        inj.on_task_start(0, offset=10)  # task 0: fine
        with pytest.raises(WorkerCrashed):
            inj.on_task_start(0, offset=11)  # task 1: crash
        inj.on_task_start(0, offset=12)  # restarted: fine
        assert inj.crash_count == 1

    def test_other_workers_unaffected(self):
        inj = FaultInjector(CrashPlan(((1, 0),)))
        inj.on_task_start(0, offset=1)
        with pytest.raises(WorkerCrashed):
            inj.on_task_start(1, offset=2)

    def test_every_nth_plan(self):
        plan = CrashPlan.every_nth(0, 2, times=2)
        assert plan.crash_points == ((0, 2), (0, 4))

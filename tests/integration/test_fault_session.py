"""Fault injection and crash recovery in the streaming session.

The paper's recovery story (§5.5): workers hold only soft state, so a
crashed worker's in-flight update is redelivered by the durable queue and
the output of a crashy run equals the output of a crash-free run.  Two
kinds of crash are driven here, on every backend:

* a :class:`~repro.runtime.fault.FaultInjector` crash point fired as the
  queue hands an item out (the session injects as worker 0), plus the
  telemetry artifacts such a recovery leaves behind (restart counter,
  ``worker.restart`` trace markers);
* the backend itself failing in the middle of a multi-window flush — a
  ``run_tasks`` that raises, a real slice-worker death under
  ``ProcessBackend``, and an algorithm whose ``filter`` throws three
  vertices deep (the engines that threw mine the rerun).  The session publishes a window only after it ran
  and acks only after it published, so the exception leaves finished
  windows published, nothing in flight, the watermark below the failed
  window, and a second ``run_pending()`` resumes to the crash-free stream.
"""

import itertools
import os

import pytest

from repro.apps import CliqueMining
from repro.core.engine import collect_matches
from repro.errors import WorkerCrashed
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.runtime.backend import BACKEND_NAMES
from repro.runtime.fault import CrashPlan, FaultInjector
from repro.runtime.session import StreamingSession
from repro.telemetry import Telemetry
from repro.types import Update

from tests.unit.test_backend_session import DiesOutsideCaller


def k7_stream():
    """K7 edge by edge, then one deletion: 22 updates, 5 windows of <= 5."""
    edges = itertools.combinations(range(7), 2)
    return [Update.add_edge(u, v) for u, v in edges] + [Update.delete_edge(0, 1)]


def er_stream(n, m, seed, shuffle_seed):
    g = erdos_renyi(n, m, seed=seed)
    return [Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=shuffle_seed)]


def open_session(backend="serial", window_size=5, algorithm=None, **kwargs):
    """A session with a counting and a collecting sink attached."""
    session = StreamingSession(
        algorithm if algorithm is not None else CliqueMining(3, min_size=3),
        backend,
        window_size=window_size,
        num_workers=2,
        **kwargs,
    )
    out = session.output_stream()
    return session, out.count(), out.to_list()


def run_session(fault_injector=None, telemetry=None, backend="serial", **kwargs):
    session, _, _ = open_session(
        backend, telemetry=telemetry, fault_injector=fault_injector, **kwargs
    )
    session.process(k7_stream())
    session.close()
    return session.deltas(), session


def sink_view(deltas):
    """What a collecting sink holds once each delta reached it exactly once."""
    return [(d.timestamp, d.sign(), d.subgraph) for d in deltas]


def sink_records(collected):
    return [(r.timestamp, r.sign, r.value) for r in collected.records]


# (updates, window size, worker-0 crash points).  The first is this file's
# original case; the others came over from the deleted worker-pool and
# coordinator suites, their crash points re-expressed for worker 0.
INJECTED = [
    pytest.param(k7_stream(), 5, ((0, 2), (0, 7), (0, 11)), id="k7"),
    pytest.param(er_stream(16, 40, 20, 5), 4, ((0, 1), (0, 2), (0, 5)), id="er20"),
    pytest.param(
        er_stream(16, 40, 21, 6), 4, CrashPlan.every_nth(0, 3, times=3).crash_points,
        id="er21-every-3rd",
    ),
    pytest.param(er_stream(15, 40, 0, 1), 5, ((0, 2), (0, 3)), id="er0-adjacent"),
    pytest.param(er_stream(15, 40, 0, 1), 5, ((0, 0),), id="er0-first-item"),
]


@pytest.mark.parametrize("backend", BACKEND_NAMES)
@pytest.mark.parametrize("updates, window_size, crash_points", INJECTED)
def test_crashy_run_equals_crash_free_run(backend, updates, window_size, crash_points):
    clean, _, _ = open_session(backend, window_size)
    clean.process(updates)
    clean.close()

    injector = FaultInjector(CrashPlan(crash_points))
    crashy, count, collected = open_session(
        backend, window_size, fault_injector=injector
    )
    crashy.process(updates)
    crashy.close()

    # every planned point fired: one that can never fire must not pass
    assert injector.crash_count == len(crash_points)
    assert crashy.stats().worker_crashes == len(crash_points)
    assert crashy.deltas() == clean.deltas()
    assert sink_records(collected) == sink_view(clean.deltas())
    assert count.value() == len(collect_matches(clean.deltas()))  # no duplicate
    assert crashy.queue.is_drained()


def test_manually_redelivered_item_is_consumed_once():
    clean, _ = run_session()
    session, _, collected = open_session()
    session.submit_many(k7_stream())
    session.ingress.flush()
    item = session.queue.poll()
    session.queue.redeliver(item.offset)  # its worker died before any output
    session.run_pending()
    assert session.deltas() == clean
    assert sink_records(collected) == sink_view(clean)
    assert session.queue.is_drained()


def test_crashes_counted_and_traced():
    telemetry = Telemetry()
    plan = CrashPlan.every_nth(0, 3, times=2)
    injector = FaultInjector(plan)
    deltas, session = run_session(fault_injector=injector, telemetry=telemetry)

    restarts = [
        r for r in telemetry.tracer.records() if r.name == "worker.restart"
    ]
    assert len(restarts) == injector.crash_count == 2
    assert all("offset" in r.attrs and "ts" in r.attrs for r in restarts)

    totals = session.collect_registry().counter_totals()
    assert totals["repro_session_worker_restarts_total"] == 2
    assert totals["repro_queue_redelivered_total"] == 2
    # Every update was still processed exactly once downstream.
    assert totals["repro_queue_acked_total"] == totals["repro_queue_appended_total"]

    clean, _ = run_session()
    assert deltas == clean


def test_stats_count_only_this_sessions_restarts():
    """An injector shared across sessions (a restore) or with other workers
    does not carry its crashes into another session's dashboard."""
    injector = FaultInjector(CrashPlan.every_nth(0, 3, times=2))
    _, crashed = run_session(fault_injector=injector)
    session, _, _ = open_session(fault_injector=injector)
    session.process(k7_stream())
    assert crashed.stats().worker_crashes == crashed.worker_restarts == 2
    assert session.stats().worker_crashes == session.worker_restarts == 0
    assert injector.crash_count == 2
    session.close()


def test_crash_free_plan_leaves_no_restart_artifacts():
    telemetry = Telemetry()
    injector = FaultInjector(CrashPlan())
    _, session = run_session(fault_injector=injector, telemetry=telemetry)
    assert injector.crash_count == 0
    assert not [
        r for r in telemetry.tracer.records() if r.name == "worker.restart"
    ]
    totals = session.collect_registry().counter_totals()
    assert "repro_session_worker_restarts_total" not in totals


# -- the backend fails in the middle of a flush ---------------------------------


def on_nth_call(backend, n, nth):
    """Instance-patch ``run_tasks``: its ``n``-th call goes to ``nth(run_tasks, tasks)``."""
    run_tasks = backend.run_tasks
    calls = itertools.count(1)

    def patched(tasks):
        if next(calls) == n:
            return nth(run_tasks, tasks)
        return run_tasks(tasks)

    backend.run_tasks = patched


def crash_before_reply(run_tasks, tasks):
    """The worst case for duplicates: all the work done, nothing delivered."""
    run_tasks(tasks)
    raise WorkerCrashed(1, 0)


def assert_fails_then_resumes(
    session, count, collected, clean, failed_window, error=WorkerCrashed
):
    """The crash property: drive ``session`` through one failing flush."""
    finished = [w.timestamp for w in clean.window_stats[: failed_window - 1]]
    failed_ts = clean.window_stats[failed_window - 1].timestamp
    published = [d for d in clean.deltas() if d.timestamp < failed_ts]
    assert published and len(published) < len(clean.deltas())

    session.submit_many(k7_stream())
    with pytest.raises(error):
        session.flush()
    # finished windows are published and acked, the failed one is neither
    assert session.deltas() == published
    assert sink_records(collected) == sink_view(published)
    assert count.value() == sum(d.sign() for d in published)
    assert session.queue.in_flight_offsets() == []
    assert session.queue.low_watermark() == finished[-1]
    assert [w.timestamp for w in session.window_stats] == finished

    resumed = session.run_pending()
    assert published + resumed == clean.deltas()
    assert session.deltas() == clean.deltas()
    assert sink_records(collected) == sink_view(clean.deltas())  # each once
    assert session.queue.is_drained()
    assert len(session.window_stats) == len(clean.window_stats)
    session.close()


@pytest.mark.parametrize("store", ["mv", "net"])
@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_backend_crash_mid_flush_resumes_to_the_clean_stream(backend, store):
    _, clean = run_session(backend=backend, store=store)
    session, count, collected = open_session(backend, store=store)
    on_nth_call(session.backend, 3, crash_before_reply)
    assert_fails_then_resumes(session, count, collected, clean, failed_window=3)


def test_slice_worker_death_mid_flush_resumes_to_the_clean_stream():
    """The real thing: a forked slice worker exits without replying."""
    _, clean = run_session(backend="process")
    algorithm = DiesOutsideCaller()
    algorithm.caller = None  # disarmed until the third window
    session, count, collected = open_session("process", algorithm=algorithm)

    def armed(run_tasks, tasks):
        algorithm.caller = os.getpid()
        try:
            return run_tasks(tasks)
        finally:
            algorithm.caller = None

    on_nth_call(session.backend, 3, armed)
    assert_fails_then_resumes(session, count, collected, clean, failed_window=3)


class ThrowsMidTree(CliqueMining):
    """Triangles, except that while armed ``filter`` raises three vertices deep."""

    def __init__(self):
        super().__init__(3, min_size=3)
        self.armed = False

    def filter(self, s):
        if self.armed and len(s) >= 3:
            raise LookupError("filter threw mid-tree")
        return super().filter(s)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_algorithm_throw_mid_tree_leaves_the_engine_fit_for_the_rerun(backend):
    """An engine lives as long as its backend and re-roots itself per update.

    The throw abandons a search tree with vertices and matrix rows pushed;
    the redelivered window is then mined by those very engines (the serial
    one, the process backend's inline one, the simulated workers'
    explorers) and must come out as if nothing had happened.
    """
    _, clean = run_session(backend=backend)
    algorithm = ThrowsMidTree()
    session, count, collected = open_session(backend, algorithm=algorithm)

    def armed(run_tasks, tasks):
        algorithm.armed = True
        try:
            return run_tasks(tasks)
        finally:
            algorithm.armed = False

    on_nth_call(session.backend, 3, armed)
    assert_fails_then_resumes(
        session, count, collected, clean, failed_window=3, error=LookupError
    )

"""End-to-end telemetry through the full pipeline, across backends.

The acceptance contract: the same input stream yields **identical counter
totals** on every execution backend (wall-clock quantities are gauges and
histograms, which may differ).  Also covers the span hierarchy the session
produces, the WindowStats bridge, dataflow operator counts, and the
``mine --metrics-out/--trace-out`` CLI surface.
"""

import itertools
import json

import pytest

from repro.apps import CliqueMining
from repro.cli import main
from repro.core.engine import TesseractEngine
from repro.runtime.backend import BACKEND_NAMES
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.telemetry import Telemetry, Tracer
from repro.types import EdgeUpdate, Update

EDGES = list(itertools.combinations(range(7), 2))


def run_backend(backend, with_stream=False):
    telemetry = Telemetry()
    session = StreamingSession(
        CliqueMining(3, min_size=3),
        backend,
        window_size=5,
        num_workers=2,
        telemetry=telemetry,
    )
    counted = session.output_stream().filter(lambda s: True).count() if with_stream else None
    session.submit_many(Update.add_edge(u, v) for u, v in EDGES)
    session.flush()
    registry = session.collect_registry()
    session.close()
    return session, telemetry, registry, counted


@pytest.mark.parametrize("backend", ["process", "simulated"])
def test_counter_totals_identical_across_backends(backend):
    _, _, serial_reg, _ = run_backend("serial")
    _, _, other_reg, _ = run_backend(backend)
    assert other_reg.counter_totals() == serial_reg.counter_totals()


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_one_registry_counts_each_task_once(backend):
    """Engines record into the session's own registry — the process backend
    merges each worker's straight into it — and a snapshot reads it once."""
    session, _, registry, _ = run_backend(backend)
    hist = registry.histogram("repro_engine_task_seconds").labels()
    assert hist.count == len(EDGES) == session.metrics().explore_calls
    assert session.collect_registry().dump("prom") == registry.dump("prom")


def test_span_hierarchy_window_then_tasks():
    session, telemetry, _, _ = run_backend("serial")
    records = telemetry.tracer.records()
    windows = {r.span_id: r for r in records if r.name == "window"}
    tasks = [r for r in records if r.name == "task"]
    assert windows and tasks
    assert all(t.parent_id in windows for t in tasks)
    assert sum(w.attrs["updates"] for w in windows.values()) == len(tasks)
    # ingress windows are recorded as siblings (they close before execution)
    assert any(r.name == "ingress.window" for r in records)


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_every_task_span_nests_under_its_window(backend):
    """Tasks run (or are absorbed) on the thread holding the window span,
    so each task span's parent is that window."""
    _, telemetry, _, _ = run_backend(backend)
    records = telemetry.tracer.records()
    windows = {r.span_id: r for r in records if r.name == "window"}
    tasks = [r for r in records if r.name == "task"]
    assert len(tasks) == len(EDGES)
    assert all(t.parent_id in windows for t in tasks)


def test_task_spans_overflow_the_ring_like_context_manager_spans():
    """The engine records its task spans through the tracer's manual path;
    past the ring's capacity that path must count, evict and number spans
    exactly as ``with tracer.span("task", ...)`` does."""
    updates = [EdgeUpdate(u, v, added=True) for u, v in EDGES]
    store = MultiVersionStore()
    store.apply_edge_updates(1, updates)
    telemetry = Telemetry(trace_capacity=8)
    engine = TesseractEngine(store, CliqueMining(3, min_size=3), telemetry=telemetry)
    with telemetry.tracer.span("window"):
        emitted = [len(engine.process_update(1, update)) for update in updates]
    reference = Tracer(capacity=8)
    with reference.span("window"):
        for update, deltas in zip(updates, emitted):
            with reference.span(
                "task", ts=1, u=update.u, v=update.v, added=True, worker=0
            ) as span:
                span.set(deltas=deltas, emits=deltas)
    tracer = telemetry.tracer
    assert tracer.dropped_spans == reference.dropped_spans == len(EDGES) + 1 - 8
    assert tracer.spans_recorded == reference.spans_recorded == len(EDGES) + 1

    def shape(records):
        return [(r.span_id, r.parent_id, r.name, r.attrs) for r in records]

    assert shape(tracer.records()) == shape(reference.records())


def test_process_backend_ships_spans_from_workers():
    _, telemetry, _, _ = run_backend("process")
    tasks = [r for r in telemetry.tracer.records() if r.name == "task"]
    assert len(tasks) == len(EDGES)
    windows = {r.span_id for r in telemetry.tracer.records() if r.name == "window"}
    assert all(t.parent_id in windows for t in tasks)


def test_window_stats_bridge_and_idempotence():
    session, _, registry, _ = run_backend("serial")
    totals = registry.counter_totals()
    assert totals["repro_session_windows_total"] == len(session.window_stats)
    assert totals["repro_session_updates_total"] == len(EDGES)
    assert totals['repro_session_deltas_total{kind="new"}'] == sum(
        w.num_new for w in session.window_stats
    )
    hist = registry.histogram("repro_session_window_seconds").labels()
    assert hist.count == len(session.window_stats)
    # collect_registry builds a fresh snapshot every time — same output.
    assert session.collect_registry().dump("prom") == registry.dump("prom")


def test_dataflow_operator_counts():
    _, _, registry, counted = run_backend("serial", with_stream=True)
    totals = registry.counter_totals()
    source = totals['repro_dataflow_records_total{operator="source"}']
    assert source == totals['repro_dataflow_records_total{operator="filter"}']
    assert source == totals['repro_dataflow_records_total{operator="aggregatenode"}']
    assert counted.value() == source  # additions only: every record is NEW


def test_disabled_telemetry_collects_bridged_counters_only():
    session = StreamingSession(CliqueMining(3, min_size=3), window_size=5)
    session.submit_many(Update.add_edge(u, v) for u, v in EDGES)
    session.flush()
    registry = session.collect_registry()
    totals = registry.counter_totals()
    # Every count is a projection of what the components keep, so it reads
    # the same with telemetry off (engine metrics, ingress, queue, windows)...
    assert totals["repro_session_updates_total"] == len(EDGES)
    assert totals["repro_ingress_updates_accepted_total"] == len(EDGES)
    assert totals["repro_ingress_updates_submitted_total"] == len(EDGES)
    assert totals["repro_queue_appended_total"] == len(EDGES)
    assert totals["repro_queue_acked_total"] == len(EDGES)
    assert totals["repro_engine_explore_calls_total"] > 0
    # ...but the live clock readings never recorded anything.
    for clock in ("repro_engine_task_seconds", "repro_queue_ack_latency_seconds"):
        assert not registry.histogram(clock).children
    session.close()


def test_cli_metrics_and_trace_outputs(tmp_path):
    graph = tmp_path / "g.txt"
    graph.write_text(
        "\n".join(f"{u} {v}" for u, v in itertools.combinations(range(6), 2))
    )
    metrics_json = tmp_path / "m.json"
    metrics_prom = tmp_path / "m.prom"
    trace = tmp_path / "t.jsonl"
    base = ["mine", "3-C", "--graph", str(graph), "--window", "5", "--quiet"]
    assert main(base + ["--metrics-out", str(metrics_json),
                        "--trace-out", str(trace)]) == 0
    assert main(base + ["--metrics-out", str(metrics_prom),
                        "--metrics-format", "prom"]) == 0

    doc = json.loads(metrics_json.read_text())
    assert doc["repro_session_windows_total"]["values"][0]["value"] == 3
    assert "# TYPE repro_session_windows_total counter" in metrics_prom.read_text()

    spans = [json.loads(line) for line in trace.read_text().splitlines()]
    names = {s["name"] for s in spans}
    assert {"window", "task", "ingress.window"} <= names

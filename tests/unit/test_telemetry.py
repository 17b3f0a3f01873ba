"""Unit tests for the telemetry subsystem: tracer, registry, null path."""

import io
import json

import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    NULL_SPAN,
    NULL_TELEMETRY,
    NULL_TRACER,
    MetricsRegistry,
    Telemetry,
    Tracer,
    ensure,
)


# -- tracer ----------------------------------------------------------------


def test_span_nesting_and_attrs():
    tracer = Tracer()
    with tracer.span("window", ts=1) as outer:
        with tracer.span("task", u=0, v=1) as inner:
            inner.set(deltas=3)
    records = tracer.records()
    assert [r.name for r in records] == ["task", "window"]  # close order
    task, window = records
    assert task.parent_id == window.span_id
    assert window.parent_id is None
    assert task.attrs == {"u": 0, "v": 1, "deltas": 3}
    assert task.duration >= 0.0
    assert window.start <= task.start and task.end <= window.end


def test_anchored_span_parents_other_threads():
    import threading

    tracer = Tracer()
    with tracer.span("window", anchored=True) as window:
        def worker():
            with tracer.span("task"):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
    task = [r for r in tracer.records() if r.name == "task"][0]
    assert task.parent_id == window.span_id


def test_ring_buffer_eviction_and_total():
    tracer = Tracer(capacity=4)
    for i in range(10):
        with tracer.span("s", i=i):
            pass
    records = tracer.records()
    assert len(records) == 4
    assert [r.attrs["i"] for r in records] == [6, 7, 8, 9]
    assert tracer.spans_recorded == 10


def test_jsonl_export_round_trips():
    tracer = Tracer()
    with tracer.span("a", k="v"):
        pass
    out = io.StringIO()
    assert tracer.export_jsonl(out) == 1
    doc = json.loads(out.getvalue().strip())
    assert doc["name"] == "a"
    assert doc["attrs"] == {"k": "v"}
    assert doc["duration"] == pytest.approx(doc["end"] - doc["start"])
    assert tracer.to_jsonl() == out.getvalue().strip()


def test_absorb_reparents_and_reids():
    worker = Tracer()
    with worker.span("task"):
        with worker.span("explore"):
            pass
    parent = Tracer()
    with parent.span("window") as window:
        parent.absorb(worker.records())
    by_name = {r.name: r for r in parent.records()}
    assert by_name["task"].parent_id == window.span_id
    assert by_name["explore"].parent_id == by_name["task"].span_id
    ids = {r.span_id for r in parent.records()}
    assert len(ids) == 3  # fresh, unique ids from the absorbing tracer


def test_null_tracer_is_free_and_shared():
    assert not NULL_TRACER.enabled
    span = NULL_TRACER.span("anything", ts=1)
    assert span is NULL_SPAN
    with span as s:
        assert s.set(x=1) is NULL_SPAN
    assert NULL_TRACER.records() == []
    assert NULL_TRACER.to_jsonl() == ""
    assert NULL_TRACER.export_jsonl(io.StringIO()) == 0


# -- registry --------------------------------------------------------------


def test_counter_gauge_histogram_basics():
    reg = MetricsRegistry()
    reg.counter("c_total", "a counter").inc()
    reg.counter("c_total").inc(2)
    reg.gauge("g").set(5)
    reg.gauge("g").dec(2)
    h = reg.histogram("h_seconds", buckets=(0.1, 1.0))
    h.observe(0.05)
    h.observe(0.5)
    h.observe(50)
    assert reg.counter_totals() == {"c_total": 3}
    child = reg.histogram("h_seconds").labels()
    assert child.bucket_counts == [1, 1, 1]
    assert child.count == 3 and child.sum == pytest.approx(50.55)
    assert child.cumulative_counts() == [1, 2, 3]


def test_registry_kind_conflict_rejected():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(ValueError):
        reg.gauge("x")


def test_labels_create_children_lazily():
    reg = MetricsRegistry()
    fam = reg.counter("records_total")
    fam.labels(operator="map").inc(2)
    fam.labels(operator="filter").inc()
    assert reg.counter_totals() == {
        'records_total{operator="filter"}': 1,
        'records_total{operator="map"}': 2,
    }


def test_prom_exposition_format():
    reg = MetricsRegistry()
    reg.counter("c_total", "help text").inc(2)
    reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
    text = reg.to_prom()
    assert "# HELP c_total help text" in text
    assert "# TYPE c_total counter" in text
    assert "c_total 2" in text
    assert 'h_bucket{le="1"} 0' in text
    assert 'h_bucket{le="2"} 1' in text
    assert 'h_bucket{le="+Inf"} 1' in text
    assert "h_sum 1.5" in text
    assert "h_count 1" in text


def test_json_exposition_is_stable_and_parsable():
    reg = MetricsRegistry()
    reg.counter("c_total").inc()
    reg.gauge("g").set(2.5)
    doc = json.loads(reg.dump("json"))
    assert doc["c_total"]["type"] == "counter"
    assert doc["c_total"]["values"][0]["value"] == 1
    assert doc["g"]["values"][0]["value"] == 2.5
    with pytest.raises(ValueError):
        reg.dump("xml")


def test_merge_sums_counters_gauges_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("c").inc(1)
    b.counter("c").inc(2)
    a.gauge("g").set(1)
    b.gauge("g").set(2)
    a.histogram("h", buckets=(1.0,)).observe(0.5)
    b.histogram("h", buckets=(1.0,)).observe(2.0)
    a.merge(b)
    assert a.counter_totals() == {"c": 3}
    assert a.gauge("g").labels().value == 3
    assert a.histogram("h").labels().bucket_counts == [1, 1]


def test_merge_rejects_mismatched_histogram_bounds():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("h", buckets=(1.0,)).observe(0.5)
    b.histogram("h", buckets=(2.0,)).observe(0.5)
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_bounds_must_increase():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.histogram("bad", buckets=(1.0, 1.0)).observe(0)
    assert len(DEFAULT_BUCKETS) > 0


def test_null_registry_accepts_everything_silently():
    NULL_REGISTRY.counter("c").inc()
    NULL_REGISTRY.gauge("g").set(1)
    NULL_REGISTRY.histogram("h").observe(2)
    NULL_REGISTRY.counter("c").labels(x="y").inc()
    assert NULL_REGISTRY.counter_totals() == {}
    assert NULL_REGISTRY.to_prom() == ""
    assert NULL_REGISTRY.dump("json") == "{}\n"


# -- facade ----------------------------------------------------------------


def test_ensure_coalesces_none_to_null():
    assert ensure(None) is NULL_TELEMETRY
    assert not NULL_TELEMETRY.enabled
    tel = Telemetry()
    assert ensure(tel) is tel
    assert tel.enabled
    assert isinstance(tel.registry, MetricsRegistry)
    assert isinstance(tel.tracer, Tracer)

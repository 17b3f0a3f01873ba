"""Unit tests: ExplorationProfile semantics, folded stacks, trace drops.

Integration coverage (cross-backend totals, CLI surface) lives in
``tests/integration/test_profiler_pipeline.py``; these tests pin the
record-level semantics — what each recording call does to the current
update's record, how folded stacks derive self time, and how the tracer
accounts ring-buffer evictions.
"""

import io
import json

from repro.telemetry import ExplorationProfile, NULL_PROFILE, Tracer, ensure_profile
from repro.telemetry.flame import collapse_spans, to_folded
from repro.telemetry.trace import SpanRecord
from repro.types import EdgeUpdate


def record_one_update(profile, ts=1, u=1, v=2, added=True):
    profile.begin_update(ts, EdgeUpdate(u, v, added=added))


class TestExplorationProfile:
    def test_recording_attributes_to_current_update(self):
        p = ExplorationProfile()
        record_one_update(p)
        p.node(2)
        p.node(3)
        p.attempt()
        p.attempt()
        p.pruned_same_window()
        p.pruned_rule2()
        p.expansion()
        p.filter_call(passed=True)
        p.filter_call(passed=False)
        p.match_call(matched=True)
        p.emit(is_new=True)
        p.emit(is_new=False)
        (record,) = p.updates()
        assert record.nodes == 2
        assert record.max_depth == 3
        assert record.depth_nodes == [0, 0, 1, 1]
        assert record.attempts == 2
        assert record.pruned == 2
        assert record.pruned_same_window == 1
        assert record.pruned_rule2 == 1
        assert record.expansions == 1
        assert record.filter_calls == 2 and record.filter_rejected == 1
        assert record.match_calls == 1 and record.match_rejected == 0
        assert record.new == 1 and record.rem == 1

    def test_one_counted_call_equals_that_many_single_calls(self):
        """The explorer records one EXPLORE call's children in one call."""
        single, batched = ExplorationProfile(), ExplorationProfile()
        for p in (single, batched):
            record_one_update(p)
            p.node(2)
        for _ in range(5):
            single.attempt()
        for _ in range(3):
            single.expansion()
            single.node(3)
        for verdict in (True, False, False):
            single.filter_call(verdict)
            single.match_call(not verdict)
        batched.attempt(5)
        batched.expansion(3)
        batched.node(3, 3)
        batched.filter_call(True, 1)
        batched.filter_call(False, 2)
        batched.match_call(True, 2)
        batched.match_call(False, 1)
        assert batched.to_dict() == single.to_dict()
        NULL_PROFILE.attempt(5)
        NULL_PROFILE.expansion(3)
        NULL_PROFILE.node(3, 3)
        NULL_PROFILE.filter_call(False, 2)
        NULL_PROFILE.match_call(True, 2)

    def test_begin_update_reuses_record_for_same_key(self):
        p = ExplorationProfile()
        record_one_update(p)
        p.attempt()
        record_one_update(p, ts=1, u=1, v=2)  # same key: accumulate
        p.attempt()
        record_one_update(p, ts=2, u=1, v=2)  # new window: new record
        p.attempt()
        assert p.num_updates() == 2
        by_ts = {r.ts: r.attempts for r in p.updates()}
        assert by_ts == {1: 2, 2: 1}

    def test_cost_uses_work_unit_weights(self):
        p = ExplorationProfile()
        record_one_update(p)
        p.attempt()  # weight 1
        p.expansion()  # weight 3
        p.filter_call(True)  # weight 2
        p.match_call(True)  # weight 2
        p.emit(True)  # weight 1
        (record,) = p.updates()
        assert record.cost == 1 + 3 + 2 + 2 + 1

    def test_window_rows_imbalance(self):
        p = ExplorationProfile()
        record_one_update(p, u=1, v=2)
        for _ in range(9):
            p.attempt()
        record_one_update(p, u=3, v=4)
        p.attempt()
        (row,) = p.window_rows()
        assert row["tasks"] == 2
        assert row["cost"] == 10.0
        assert row["max_task_cost"] == 9.0
        assert row["imbalance"] == 9.0 / 5.0

    def test_totals_sum_depth_histograms(self):
        p = ExplorationProfile()
        record_one_update(p, u=1, v=2)
        p.node(2)
        record_one_update(p, u=3, v=4)
        p.node(2)
        p.node(4)
        totals = p.totals()
        assert totals["nodes"] == 3
        assert totals["max_depth"] == 4
        assert totals["depth_nodes"] == [0, 0, 2, 0, 1]

    def test_null_profile_is_inert_and_shared(self):
        assert ensure_profile(None) is NULL_PROFILE
        enabled = ExplorationProfile()
        assert ensure_profile(enabled) is enabled
        assert not NULL_PROFILE.enabled
        record_one_update(NULL_PROFILE)
        NULL_PROFILE.attempt()
        NULL_PROFILE.emit(True)
        assert NULL_PROFILE.num_updates() == 0
        assert NULL_PROFILE.totals() == {}
        assert NULL_PROFILE.updates() == []


class TestFoldedStacks:
    def _span(self, span_id, parent_id, name, start, end):
        return SpanRecord(
            span_id=span_id, parent_id=parent_id, name=name, start=start, end=end
        )

    def test_self_time_subtracts_children(self):
        records = [
            self._span(1, None, "window", 0.0, 1.0),
            self._span(2, 1, "task", 0.0, 0.4),
            self._span(3, 1, "task", 0.5, 0.8),
        ]
        folded = collapse_spans(records)
        # window self time: 1.0 - (0.4 + 0.3) = 0.3s = 300000us
        assert folded["window"] == 300000
        assert folded["window;task"] == 700000

    def test_orphan_spans_become_roots(self):
        records = [self._span(7, 99, "task", 0.0, 0.25)]
        assert collapse_spans(records) == {"task": 250000}

    def test_negative_self_time_clamped(self):
        # Children overlapping in wall time can exceed the parent duration
        # (threaded workers): self time clamps at zero, never negative.
        records = [
            self._span(1, None, "window", 0.0, 0.1),
            self._span(2, 1, "task", 0.0, 0.1),
            self._span(3, 1, "task", 0.0, 0.1),
        ]
        folded = collapse_spans(records)
        assert folded["window"] == 0
        assert folded["window;task"] == 200000

    def test_semicolons_in_names_sanitized_and_output_sorted(self):
        records = [
            self._span(1, None, "a;b", 0.0, 0.001),
            self._span(2, None, "zz", 0.0, 0.001),
        ]
        text = to_folded(records)
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert lines[0].startswith("a:b ")
        assert text.endswith("\n")

    def test_empty_records_fold_to_empty_string(self):
        assert to_folded([]) == ""


class TestTracerDrops:
    def test_ring_eviction_counts_drops(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.record(f"s{i}", 0.0, 1.0)
        assert tracer.spans_recorded == 5
        assert tracer.dropped_spans == 3
        assert len(tracer.records()) == 2

    def test_untruncated_trace_has_no_header(self):
        tracer = Tracer(capacity=8)
        tracer.record("only", 0.0, 1.0)
        assert tracer.dropped_spans == 0
        out = io.StringIO()
        assert tracer.export_jsonl(out) == 1
        lines = out.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "only"

    def test_truncated_trace_exports_header(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            tracer.record(f"s{i}", 0.0, 1.0)
        out = io.StringIO()
        written = tracer.export_jsonl(out)
        assert written == 2
        lines = out.getvalue().strip().splitlines()
        header = json.loads(lines[0])
        assert header["name"] == "trace.header"
        assert header["dropped_spans"] == 2
        assert header["spans_recorded"] == 4
        assert header["capacity"] == 2
        assert len(lines) == 1 + written
        assert tracer.to_jsonl() == out.getvalue().strip()

    def test_absorb_evictions_count_as_drops(self):
        source = Tracer(capacity=8)
        for i in range(4):
            source.record(f"w{i}", 0.0, 1.0)
        sink = Tracer(capacity=2)
        sink.absorb(source.records())
        assert sink.dropped_spans == 2
        assert len(sink.records()) == 2

    def test_clear_resets_drop_counter(self):
        tracer = Tracer(capacity=1)
        tracer.record("a", 0.0, 1.0)
        tracer.record("b", 0.0, 1.0)
        assert tracer.dropped_spans == 1
        tracer.clear()
        assert tracer.dropped_spans == 0
        tracer.record("c", 0.0, 1.0)
        assert tracer.to_jsonl().count("\n") == 0  # single line, no header

"""Unit tests: ExplorationProfile semantics, folded stacks, trace drops.

Integration coverage (cross-backend totals, CLI surface) lives in
``tests/integration/test_profiler_pipeline.py``; these tests pin the
record-level semantics — how one task's ``Metrics.counts()`` difference
becomes its update's record, how folded stacks derive self time, and how
the tracer accounts ring-buffer evictions.
"""

import io
import json

from repro.core.metrics import Metrics
from repro.telemetry import ExplorationProfile, Tracer
from repro.telemetry.flame import collapse_spans, to_folded
from repro.telemetry.trace import SpanRecord
from repro.types import EdgeUpdate, MatchDelta, MatchStatus, MatchSubgraph


def record_task(
    profile, ts=1, u=1, v=2, added=True, new=0, rem=0, vertex_induced=True, **moved
):
    """One task that moved the :class:`Metrics` counters in ``moved`` and
    emitted ``new`` NEW and ``rem`` REM deltas."""
    match = MatchSubgraph((u, v), frozenset({(u, v)}))
    deltas = [MatchDelta(ts, MatchStatus.NEW, match)] * new
    deltas += [MatchDelta(ts, MatchStatus.REM, match)] * rem
    profile.record(
        ts,
        EdgeUpdate(u, v, added=added),
        Metrics().counts(),
        Metrics(emits=new + rem, **moved).counts(),
        deltas,
        vertex_induced,
    )


class TestExplorationProfile:
    def test_record_derives_every_field_from_the_difference(self):
        p = ExplorationProfile()
        record_task(
            p,
            can_expand_calls=6,
            expansions=3,
            pruned_rule2=1,
            filter_calls=5,
            filter_passes=3,
            match_calls=2,
            new=1,
            rem=1,
            depth_expansions=[0, 0, 0, 2, 1],
        )
        (record,) = p.updates()
        assert record.nodes == 4
        assert record.max_depth == 4
        assert record.depth_nodes == [0, 0, 1, 2, 1]
        assert record.attempts == 6
        assert record.pruned_rule2 == 1
        assert record.pruned_same_window == 6 - 3 - 1
        assert record.pruned == 3
        assert record.expansions == 3
        assert record.filter_calls == 5 and record.filter_rejected == 2
        assert record.match_calls == 2 and record.match_rejected == 0
        assert record.new == 1 and record.rem == 1

    def test_edge_induced_same_window_prunes_are_excluded_edges(self):
        p = ExplorationProfile()
        record_task(
            p,
            vertex_induced=False,
            can_expand_calls=3,
            expansions=8,
            pruned_rule2=1,
            edges_excluded=2,
            depth_expansions=[0, 0, 0, 8],
        )
        (record,) = p.updates()
        assert record.pruned_same_window == 2
        assert record.pruned_rule2 == 1

    def test_record_is_the_difference_of_two_snapshots(self):
        """Counters of earlier tasks, and depths they reached, are not this
        task's."""
        p = ExplorationProfile()
        before = Metrics(filter_calls=7, expansions=4, depth_expansions=[0, 0, 0, 3, 1])
        after = Metrics(
            filter_calls=9,
            filter_passes=1,
            expansions=5,
            can_expand_calls=1,
            depth_expansions=[0, 0, 0, 4, 1, 0],
        )
        update = EdgeUpdate(1, 2, added=True)
        p.record(1, update, before.counts(), after.counts(), [], True)
        (record,) = p.updates()
        assert (record.filter_calls, record.filter_rejected) == (2, 1)
        assert record.depth_nodes == [0, 0, 1, 1]
        assert record.max_depth == 3
        assert record.nodes == 2

    def test_record_reuses_record_for_same_key(self):
        p = ExplorationProfile()
        record_task(p, can_expand_calls=1)
        record_task(p, ts=1, u=1, v=2, can_expand_calls=1)  # same key: accumulate
        record_task(p, ts=2, u=1, v=2, can_expand_calls=1)  # new window: new record
        assert p.num_updates() == 2
        by_ts = {r.ts: r.attempts for r in p.updates()}
        assert by_ts == {1: 2, 2: 1}

    def test_cost_uses_work_unit_weights(self):
        p = ExplorationProfile()
        record_task(
            p,
            can_expand_calls=1,  # weight 1
            expansions=1,  # weight 3
            filter_calls=1,  # weight 2
            filter_passes=1,
            match_calls=1,  # weight 2
            new=1,  # weight 1
            depth_expansions=[0, 0, 0, 1],
        )
        (record,) = p.updates()
        assert record.cost == 1 + 3 + 2 + 2 + 1

    def test_window_rows_imbalance(self):
        p = ExplorationProfile()
        record_task(p, u=1, v=2, can_expand_calls=9)
        record_task(p, u=3, v=4, can_expand_calls=1)
        (row,) = p.window_rows()
        assert row["tasks"] == 2
        assert row["cost"] == 10.0
        assert row["max_task_cost"] == 9.0
        assert row["imbalance"] == 9.0 / 5.0

    def test_totals_sum_depth_histograms(self):
        p = ExplorationProfile()
        record_task(p, u=1, v=2)
        record_task(p, u=3, v=4, expansions=1, depth_expansions=[0, 0, 0, 0, 1])
        totals = p.totals()
        assert totals["nodes"] == 3
        assert totals["max_depth"] == 4
        assert totals["depth_nodes"] == [0, 0, 2, 0, 1]


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

"""Trace-context propagation units: identity, wire codec, export safety.

Covers the pieces that make cross-process tracing work — the tracer's
run-wide identity, the tolerant wire codec of the trace context carried
on every RPC, the lock-scoped export snapshot (an export racing
concurrent span recording must never tear a JSONL line), and the
:class:`NetLog` delta accounting process workers ship back per task.
"""

import json
import threading

import pytest

from repro.net.rpc import LATENCY_SAMPLE_CAP, NetLog, RpcClient
from repro.net.server import StoreServer
from repro.net.wire import decode_trace_context, encode_trace_context
from repro.store.mvstore import MultiVersionStore
from repro.telemetry import NULL_TRACER, Tracer


class TestTraceContext:
    def test_tracer_mints_a_trace_id(self):
        tracer = Tracer(node="client")
        assert len(tracer.trace_id) == 16
        int(tracer.trace_id, 16)  # hex
        assert Tracer().trace_id != tracer.trace_id

    def test_explicit_trace_id_is_kept(self):
        assert Tracer(trace_id="feedface00000001").trace_id == "feedface00000001"

    def test_null_tracer_has_no_identity(self):
        assert NULL_TRACER.node is None
        assert NULL_TRACER.trace_id == ""


class TestWireCodec:
    def test_roundtrip(self):
        wire = encode_trace_context("abc123", 9, "client", flags=1, attempt=0)
        # the wire form is the positional quintuple (same convention as the
        # edge-version quads): JSON-cheap on a field riding every request
        assert wire == ["abc123", 9, "client", 1, 0]
        assert decode_trace_context(wire) == ("abc123", 9, "client", 1, 0)

    def test_retry_attempt_rides_along(self):
        wire = encode_trace_context("abc123", 9, "client", attempt=2)
        assert decode_trace_context(wire)[4] == 2

    def test_trailing_fields_may_be_omitted(self):
        # forward-compatible short form: flags/attempt default to 1/0
        assert decode_trace_context(["abc", 9, "client"]) == ("abc", 9, "client", 1, 0)

    @pytest.mark.parametrize(
        "bad",
        [
            None,
            "not-a-list",
            {"trace_id": "abc", "span_id": 1, "node": "c"},
            [],
            ["abc", 1],
            ["abc", 1, "c", 1, 0, "extra"],
            ["", 1, "c"],
            [5, 1, "c"],
            ["abc", "1", "c"],
            ["abc", True, "c"],
            ["abc", 1, 4],
        ],
        ids=[
            "absent",
            "string",
            "dict",
            "empty",
            "too-short",
            "too-long",
            "empty-trace-id",
            "int-trace-id",
            "str-span-id",
            "bool-span-id",
            "int-node",
        ],
    )
    def test_malformed_contexts_decode_to_none(self, bad):
        # a bad trace context must never fail the RPC it rides on
        assert decode_trace_context(bad) is None

    def test_bad_optional_fields_fall_back_to_defaults(self):
        decoded = decode_trace_context(["abc", 1, "c", "x", []])
        assert decoded[3] == 1  # flags
        assert decoded[4] == 0  # attempt


class TestWireSpans:
    """A span that crosses the wire: the client takes its id before the
    span completes, and the server records its ``rpc.server`` span as a
    local root whose parent lives in another process."""

    @pytest.fixture
    def server(self):
        server = StoreServer(MultiVersionStore())
        yield server
        server.close()

    @staticmethod
    def record_server_spans(server, tracer, rctx):
        server._record_rpc_spans(
            tracer, "add_edge", rctx, 0.0, 0.1, 0.2, "store.add_edge", None, None
        )
        return {r.name: r for r in tracer.records()}

    def test_wire_span_parents_under_the_open_span(self):
        tracer = Tracer(node="client")
        with tracer.span("rpc.batch") as outer:
            span_id, parent_id = tracer.open_wire_span()
        assert parent_id == outer.span_id
        assert span_id > outer.span_id

    def test_wire_span_on_an_empty_stack_is_a_root(self):
        tracer = Tracer(node="client")
        span_id, parent_id = tracer.open_wire_span()
        assert parent_id is None
        with tracer.span("next") as later:
            pass
        assert later.span_id > span_id  # the wire id is never issued twice

    def test_remote_parented_server_span_is_a_local_root(self, server):
        tracer = Tracer(node="server")
        rctx = decode_trace_context(
            encode_trace_context("abc123", 41, "client", attempt=2)
        )
        with tracer.span("outer"):
            spans = self.record_server_spans(server, tracer, rctx)
        record = spans["rpc.server"]
        assert record.parent_id is None
        assert record.attrs == {
            "op": "add_edge",
            "attempt": 2,
            "trace_id": "abc123",
            "remote_parent": {"node": "client", "span_id": 41},
        }

    def test_children_of_a_remote_server_span_nest_locally(self, server):
        tracer = Tracer(node="server")
        rctx = decode_trace_context(encode_trace_context("abc123", 41, "client"))
        spans = self.record_server_spans(server, tracer, rctx)
        assert spans["store.add_edge"].parent_id == spans["rpc.server"].span_id

    def test_null_tracer_opens_and_records_nothing(self):
        assert NULL_TRACER.open_wire_span() == (0, None)
        NULL_TRACER.record_completed([(1, None, "rpc.server", 0.0, 1.0, {})])
        assert NULL_TRACER.records() == []


class TestExportFormat:
    def test_identityless_export_stays_plain_span_lines(self):
        """Tracers without a node identity export byte-identically to
        pre-trace-context releases: no meta line, no header line."""
        tracer = Tracer()
        with tracer.span("w"):
            pass
        lines = tracer.to_jsonl().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["name"] == "w"

    def test_node_identity_prepends_a_meta_line(self):
        tracer = Tracer(node="server")
        with tracer.span("w"):
            pass
        first = json.loads(tracer.to_jsonl().splitlines()[0])
        assert first == {
            "name": "trace.meta",
            "node": "server",
            "trace_id": tracer.trace_id,
            "clock": "monotonic",
        }

    def test_truncated_export_orders_meta_then_header(self):
        tracer = Tracer(capacity=2, node="n")
        for _ in range(4):
            with tracer.span("w"):
                pass
        lines = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert [r["name"] for r in lines[:2]] == ["trace.meta", "trace.header"]
        assert lines[1]["dropped_spans"] == 2
        assert lines[1]["spans_recorded"] == 4

    def test_export_count_excludes_meta_and_header(self, tmp_path):
        tracer = Tracer(capacity=2, node="n")
        for _ in range(3):
            with tracer.span("w"):
                pass
        out = tmp_path / "trace.jsonl"
        with open(out, "w") as fh:
            assert tracer.export_jsonl(fh) == 2
        assert len(out.read_text().splitlines()) == 4  # meta + header + 2 spans

    def test_empty_identityless_export_writes_nothing(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        with open(out, "w") as fh:
            assert Tracer().export_jsonl(fh) == 0
        assert out.read_text() == ""


class TestConcurrentExport:
    def test_export_never_tears_a_line_under_recording(self):
        """Satellite hardening: exports racing concurrent span recording
        must produce parseable JSONL every time (one lock-scoped snapshot,
        one write)."""
        tracer = Tracer(capacity=64, node="server")
        stop = threading.Event()

        def record_spans():
            while not stop.is_set():
                with tracer.span("rpc.server", op="add_edge"):
                    with tracer.span("store.add_edge", payload="x" * 64):
                        pass

        threads = [threading.Thread(target=record_spans) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(200):
                lines = tracer.to_jsonl().splitlines()
                parsed = [json.loads(line) for line in lines]  # no tears
                assert parsed[0]["name"] == "trace.meta"
                header = [r for r in parsed if r["name"] == "trace.header"]
                if header:
                    # the truncation counter pairs with the same snapshot
                    assert header[0]["spans_recorded"] >= len(parsed) - 2
        finally:
            stop.set()
            for t in threads:
                t.join()


def sum_logs(logs):
    """Field-wise sum of :class:`NetLog` deltas (latency samples in order)."""
    total = NetLog()
    for log in logs:
        total.rpcs += log.rpcs
        total.retries += log.retries
        total.deadline_hits += log.deadline_hits
        total.bytes_sent += log.bytes_sent
        total.bytes_received += log.bytes_received
        for op, count in log.per_op.items():
            total.per_op[op] = total.per_op.get(op, 0) + count
        total.latencies_s.extend(log.latencies_s)
    return total


class TestNetLogAccounting:
    def test_deltas_add_counts_and_per_op(self):
        # RpcClient only dials on call(), so a bare instance is a pure
        # accounting fixture
        client = RpcClient("127.0.0.1", 1)
        log = client.log
        log.rpcs, log.retries, log.bytes_sent = 3, 1, 10
        log.per_op = {"ping": 3}
        first = client.take_log_delta()
        log.rpcs += 2
        log.deadline_hits += 1
        log.bytes_received += 7
        log.per_op["ping"] += 1
        log.per_op["add_edge"] = 1
        log.observe_latency(0.1)
        log.observe_latency(0.2)
        total = sum_logs([first, client.take_log_delta()])
        assert total.rpcs == 5
        assert total.retries == 1
        assert total.deadline_hits == 1
        assert total.bytes_sent == 10
        assert total.bytes_received == 7
        assert total.per_op == {"ping": 4, "add_edge": 1}
        assert total.latencies_s == [0.1, 0.2]

    def test_observe_latency_respects_the_cap(self):
        client = RpcClient("127.0.0.1", 1)
        client.log.latencies_s = [0.0] * (LATENCY_SAMPLE_CAP - 1)
        client.take_log_delta()
        for sample in (0.5, 0.6, 0.7):
            client.log.observe_latency(sample)
        assert len(client.log.latencies_s) == LATENCY_SAMPLE_CAP
        assert client.log.latencies_s[-1] == 0.5
        assert client.take_log_delta().latencies_s == [0.5]

    def test_take_log_delta_partitions_activity(self):
        client = RpcClient("127.0.0.1", 1)
        client.log.rpcs = 3
        client.log.bytes_sent = 30
        client.log.per_op = {"hello": 1, "add_edge": 2}
        client.log.latencies_s = [0.1, 0.2, 0.3]

        first = client.take_log_delta()
        assert first.rpcs == 3
        assert first.bytes_sent == 30
        assert first.per_op == {"hello": 1, "add_edge": 2}
        assert first.latencies_s == [0.1, 0.2, 0.3]

        # nothing happened since: the delta is empty, not a repeat
        second = client.take_log_delta()
        assert second.rpcs == 0
        assert second.per_op == {}
        assert second.latencies_s == []

        client.log.rpcs = 5
        client.log.retries = 1
        client.log.per_op["add_edge"] = 3
        client.log.observe_latency(0.4)
        third = client.take_log_delta()
        assert third.rpcs == 2
        assert third.retries == 1
        assert third.per_op == {"add_edge": 1}
        assert third.latencies_s == [0.4]

    def test_deltas_sum_to_the_cumulative_log(self):
        client = RpcClient("127.0.0.1", 1)
        deltas = []
        for round_rpcs in (2, 0, 5):
            client.log.rpcs += round_rpcs
            client.log.per_op["ping"] = client.log.per_op.get("ping", 0) + round_rpcs
            deltas.append(client.take_log_delta())
        total = sum_logs(deltas)
        assert total.rpcs == client.log.rpcs == 7
        assert total.per_op == client.log.per_op

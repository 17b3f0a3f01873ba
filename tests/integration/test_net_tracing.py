"""Distributed tracing across the wire, end to end.

The acceptance path of the tracing PR: a client mines over TCP with
tracing on, the server records remote-parented spans, and ``trace-merge``
stitches the two JSONL files into one tree in which every client RPC span
has a parented server span and the client/wire/server/store decomposition
sums back to the client-observed latency.

Also covered here: fault injection (drops force retry spans that keep the
trace id; duplicated writes surface as ``dedup_replay`` server spans), the
``--telemetry-addr`` ops surface under concurrent RPC load, the ``repro
top`` / ``repro trace-merge`` CLI paths, and the process-backend net
accounting contract (worker deltas merge without resetting or
double-counting the wire gauges).
"""

import json
import pickle
import threading

import pytest
from net_proxy import FaultProxy

from repro.apps import CliqueMining
from repro.cli import main
from repro.graph.generators import erdos_renyi
from repro.graph.io import write_edge_list
from repro.net import NetStoreClient, RetryPolicy, StoreServer
from repro.net.ops import TelemetryServer, http_get, render_top
from repro.runtime.session import StreamingSession
from repro.store.api import make_store
from repro.store.mvstore import MultiVersionStore
from repro.telemetry import Telemetry
from repro.telemetry.merge import load_trace_file, merge_traces
from repro.types import Update

FAST_RETRY = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05)


def trace_file_of(telemetry):
    return load_trace_file(telemetry.tracer.to_jsonl().splitlines())


def assert_decomposition_sums(rows, tolerance=0.05):
    """Every matched RPC's backoff+server+wire must sum to its client time."""
    matched = [r for r in rows if r["server_spans"]]
    assert matched
    for row in matched:
        parts = row["backoff_s"] + row["server_s"] + row["wire_s"]
        assert abs(parts - row["client_s"]) <= tolerance * row["client_s"] + 1e-9


class TestWireTracing:
    def test_client_and_server_traces_merge_into_one_tree(self):
        server_tel = Telemetry(node="server")
        client_tel = Telemetry(node="client")
        server = StoreServer(MultiVersionStore(), telemetry=server_tel).start()
        client = NetStoreClient(server.address, batch_size=2, telemetry=client_tel)
        try:
            for i in range(5):
                client.add_edge(i, i + 1, i + 1)
            client.neighbors_at(2, 5)
            client.drop_cache()
            client.prefetch(list(range(6)))  # three multi_get in one window
            client.updated_keys_in(5)  # one plain call after the window
        finally:
            client.close()
            server.close()

        merged = merge_traces([trace_file_of(client_tel), trace_file_of(server_tel)])
        totals = merged.totals()
        # every client RPC span has a parented server span
        assert totals["rpc_calls"] > 0
        assert totals["matched"] == totals["rpc_calls"]
        assert merged.orphan_server_spans == 0
        for row in merged.rpcs:
            assert row.server_node == "server"
            assert row.server_spans == 1  # loopback, no faults: one attempt
            # the server span nests inside the client call, and each server
            # span wraps its store call
            assert row.server_s <= row.client_s
            assert 0.0 < row.store_s <= row.server_s
        assert_decomposition_sums([r.to_dict() for r in merged.rpcs])
        # both processes share the client's trace id via the wire context
        server_spans = [
            s for s in merged.files[1].spans if s["name"] == "rpc.server"
        ]
        assert server_spans
        assert {s["attrs"]["trace_id"] for s in server_spans} == {
            client_tel.tracer.trace_id
        }
        # one cross-node pair, reconcilable clocks (same host)
        (skew,) = merged.skew
        assert (skew.client_node, skew.server_node) == ("client", "server")
        assert skew.consistent

    def test_mine_cli_and_trace_merge_cli(self, tmp_path, capsys):
        """The full acceptance flow: mine --store net --trace-out against a
        traced server, then 'repro trace-merge' on the two files."""
        graph_file = tmp_path / "graph.el"
        write_edge_list(erdos_renyi(12, 24, seed=3), str(graph_file))
        server_tel = Telemetry(node="server")
        server = StoreServer(MultiVersionStore(), telemetry=server_tel).start()
        host, port = server.address
        client_trace = tmp_path / "client.jsonl"
        server_trace = tmp_path / "server.jsonl"
        try:
            rc = main(
                [
                    "mine",
                    "3-C",
                    "--graph",
                    str(graph_file),
                    "--window",
                    "10",
                    "--store",
                    "net",
                    "--store-addr",
                    f"{host}:{port}",
                    "--trace-out",
                    str(client_trace),
                    "--quiet",
                ]
            )
            assert rc == 0
        finally:
            server.close()
        with open(server_trace, "w") as fh:
            assert server_tel.tracer.export_jsonl(fh) > 0

        merged_json = tmp_path / "merged.json"
        rc = main(
            [
                "trace-merge",
                str(client_trace),
                str(server_trace),
                "--json-out",
                str(merged_json),
                "--fail-on-skew",
            ]
        )
        assert rc == 0
        rendered = capsys.readouterr().out
        assert "node client" in rendered
        assert "node server" in rendered
        assert "SKEW FLAGGED" not in rendered

        doc = json.loads(merged_json.read_text())
        assert doc["totals"]["rpc_calls"] > 0
        assert doc["totals"]["matched"] == doc["totals"]["rpc_calls"]
        assert doc["unmatched_calls"] == 0
        assert_decomposition_sums(doc["rpcs"])
        assert all(s["consistent"] for s in doc["skew"])


class TestFaultTracing:
    def run_writes(self, faults, writes=30):
        server_tel = Telemetry(node="server")
        client_tel = Telemetry(node="client")
        server = StoreServer(MultiVersionStore(), telemetry=server_tel).start()
        proxy = FaultProxy(server.address, **faults).start()
        client = NetStoreClient(
            proxy.address, deadline=0.2, retry=FAST_RETRY, telemetry=client_tel
        )
        try:
            for i in range(writes):
                client.add_edge(i, i + 1, i + 1)
            for i in range(0, writes, 5):
                client.neighbors_at(i, writes)
        finally:
            client.close()
            proxy.close()
            server.close()
        return client_tel, server_tel, server, proxy

    def test_drops_produce_retry_spans_that_keep_the_trace_id(self):
        client_tel, server_tel, _server, proxy = self.run_writes(
            {"drop_every": 13}
        )
        dropped, _dup, _delayed = proxy.fault_counts()
        assert dropped > 0

        client_records = client_tel.tracer.records()
        retries = [r for r in client_records if r.name == "rpc.retry"]
        assert retries  # every drop forces a deadline wait + retry span
        call_ids = {r.span_id for r in client_records if r.name == "rpc.call"}
        assert all(r.parent_id in call_ids for r in retries)
        assert all(r.attrs["attempt"] >= 1 for r in retries)

        # retransmitted requests reach the server under the SAME trace id,
        # with the attempt number propagated on the wire
        server_spans = [
            r for r in server_tel.tracer.records() if r.name == "rpc.server"
        ]
        assert server_spans
        assert {r.attrs["trace_id"] for r in server_spans} == {
            client_tel.tracer.trace_id
        }
        assert any(r.attrs["attempt"] >= 1 for r in server_spans)

    def test_duplicate_writes_surface_as_dedup_replay_spans(self):
        client_tel, server_tel, server, proxy = self.run_writes({"dup_every": 3})
        _dropped, duplicated, _delayed = proxy.fault_counts()
        assert duplicated > 0
        replays = [
            r for r in server_tel.tracer.records() if r.name == "dedup_replay"
        ]
        assert replays  # retransmits answered from the window, not re-run
        assert server.stats_snapshot()["dedup_replays"] == len(replays)

        # the merged view attributes the replays to their client calls
        merged = merge_traces([trace_file_of(client_tel), trace_file_of(server_tel)])
        assert sum(r.dedup_replays for r in merged.rpcs) == len(replays)
        replayed_rows = [r for r in merged.rpcs if r.dedup_replays]
        assert all(r.server_spans >= 2 for r in replayed_rows)


class TestOpsSurface:
    @pytest.fixture
    def serving(self):
        server = StoreServer(MultiVersionStore()).start()
        telemetry_server = TelemetryServer(server).start()
        client = NetStoreClient(server.address)
        yield server, telemetry_server, client
        client.close()
        telemetry_server.close()
        server.close()

    def addr(self, telemetry_server):
        host, port = telemetry_server.address
        return f"{host}:{port}"

    def test_metrics_and_healthz_answer_under_rpc_load(self, serving):
        server, telemetry_server, client = serving
        addr = self.addr(telemetry_server)
        client.add_edge(1, 2, 1)  # dedup state: the sessions gauge counts it
        stop = threading.Event()
        # one thread per client: each hammer thread gets its own
        hammer_clients = [NetStoreClient(server.address) for _ in range(2)]

        def hammer(own, base):
            i = 0
            while not stop.is_set():
                own.has_vertex(base + i)
                i += 1

        workers = [
            threading.Thread(target=hammer, args=(own, 1000 * n))
            for n, own in enumerate(hammer_clients)
        ]
        for t in workers:
            t.start()
        try:
            for _ in range(10):
                status, body = http_get(addr, "/healthz")
                assert status == 200
                health = json.loads(body)
                assert health["status"] == "ok"
                assert health["kind"] == "mv"
                status, metrics = http_get(addr, "/metrics")
                assert status == 200
        finally:
            stop.set()
            for t in workers:
                t.join()
            for own in hammer_clients:
                own.close()
        assert "repro_server_requests_total" in metrics
        assert "repro_server_request_seconds_bucket" in metrics
        assert "repro_server_inflight_requests" in metrics
        assert 'op="has_vertex"' in metrics
        snap = server.stats_snapshot()
        assert snap["requests"]["has_vertex"] > 0
        assert snap["sessions"] >= 1

    def test_statz_renders_and_unknown_paths_404(self, serving):
        _server, telemetry_server, client = serving
        addr = self.addr(telemetry_server)
        client.add_edge(1, 2, 1)
        status, body = http_get(addr, "/statz")
        assert status == 200
        view = render_top(json.loads(body))
        assert "add_edge" in view
        assert "requests=" in view
        status, _ = http_get(addr, "/nope")
        assert status == 404

    def test_top_cli_renders_hot_methods(self, serving, capsys):
        _server, telemetry_server, client = serving
        client.add_edge(1, 2, 1)
        client.neighbors_at(1, 1)
        assert main(["top", self.addr(telemetry_server)]) == 0
        out = capsys.readouterr().out
        assert "requests=" in out
        assert "hello" in out  # the client's session handshake

    def test_top_cli_fails_cleanly_when_unreachable(self):
        with pytest.raises(SystemExit):
            main(["top", "127.0.0.1:1", "--timeout", "0.2"])


class TestProcessBackendNetAccounting:
    """The bug-sweep regression: pickle-reconnected worker clients must
    ship wire deltas that neither reset nor double-count the gauges."""

    def test_pickled_clone_deltas_partition_without_double_counting(self):
        client = make_store("net")
        clone = None
        try:
            client.add_edge(1, 2, 1)
            parent_rpcs = client.net_log.rpcs
            clone = pickle.loads(pickle.dumps(client))
            clone.add_edge(2, 3, 2)
            clone.neighbors_at(2, 2)
            first = clone.take_net_delta()
            # hello + write + read, all attributed to the clone
            assert first.rpcs >= 3
            assert first.per_op.get("hello") == 1
            # the take consumed the activity: an immediate re-take is empty
            second = clone.take_net_delta()
            assert second.rpcs == 0
            assert second.per_op == {}
            assert second.latencies_s == []
            # later activity lands in the next delta exactly once
            clone.has_vertex(1)
            third = clone.take_net_delta()
            assert third.rpcs == 1
            assert third.per_op == {"has_vertex": 1}
            # the parent's own accounting is untouched by clone takes
            assert client.net_log.rpcs == parent_rpcs
        finally:
            if clone is not None:
                clone.close()
            client.close()

    def test_process_backend_gauges_include_worker_wire_activity(self):
        updates = [
            Update.add_edge(u, v)
            for u, v in erdos_renyi(30, 120, seed=7).sorted_edges()
        ]
        # A two-record copy cache: forked workers inherit almost nothing
        # they need and must fetch over the wire themselves.
        store = make_store("net", cache_size=2)
        session = StreamingSession(
            CliqueMining(3, min_size=3),
            "process",
            window_size=20,  # six windows: the fork-inherited history grows
            num_workers=2,
            store=store,
            telemetry=Telemetry(),
        )

        def served():
            return sum(store._server.stats_snapshot()["requests"].values())

        try:
            session.submit_many(updates)
            session.flush()
            dumped = {f.name: f for f in session.collect_registry().families()}
            total = dumped["repro_net_rpcs"].labels().value
            # the wire truth: every request the server dispatched, the
            # parent client's and the workers', each counted exactly once
            # (a forked worker must not re-ship the history it inherited)
            parent_rpcs = store.net_log.rpcs
            assert total == served()
            assert total > parent_rpcs > 0
            # collecting again must not double-count the shipped worker
            # deltas: the gauge may only grow by the parent client's own new
            # RPCs (the scrape itself issues a store_stats call)
            again = {f.name: f for f in session.collect_registry().families()}
            parent_growth = store.net_log.rpcs - parent_rpcs
            assert again["repro_net_rpcs"].labels().value == total + parent_growth
        finally:
            session.close()
            store.close()

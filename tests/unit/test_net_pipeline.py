"""Pipelined RPC: out-of-order completion, windowing, batch plumbing.

The blocking ``call()`` path keeps its own tests in ``test_net_rpc.py``;
this file covers the parallel ``submit()`` path — id-keyed completion
against servers that answer out of order, the bounded in-flight window,
abandoned attempts whose late responses must never complete a retried
request — plus the end-to-end ``batch_size`` configuration and the
coalesced ``put_edges`` write path that ride the same PR.
"""

import socket
import threading

import pytest

from repro.net.errors import ApplicationError, DeadlineExceeded, RetriesExhausted
from repro.net.frames import FLAG_PIPELINE, MessageType, encode_frame, read_frame
from repro.net.rpc import RetryPolicy, RpcClient
from repro.net.server import StoreServer
from repro.net.wire import decode_payload, encode_payload
from repro.store.api import make_store
from repro.store.mvstore import MultiVersionStore
from repro.types import EdgeUpdate


@pytest.fixture
def served_store():
    store = MultiVersionStore()
    server = StoreServer(store).start()
    yield store, server
    server.close()


def make_client(server, **kwargs):
    host, port = server.address
    kwargs.setdefault("retry", RetryPolicy(max_attempts=2, base_delay=0.001))
    return RpcClient(host, port, **kwargs)


class ScriptedServer:
    """A one-connection server driven by the test thread.

    ``read()`` decodes the next request; ``reply(req, result)`` answers
    it — in whatever order the test chooses, which is the point.
    """

    def __init__(self):
        self._lis = socket.socket()
        self._lis.bind(("127.0.0.1", 0))
        self._lis.listen(1)
        self._conn = None

    @property
    def address(self):
        return self._lis.getsockname()[:2]

    def accept(self):
        self._conn, _ = self._lis.accept()
        return self

    def read(self):
        _, _, payload = read_frame(self._conn.recv)
        return decode_payload(payload)

    def reply(self, request, result):
        self._conn.sendall(
            encode_frame(
                MessageType.RESPONSE,
                encode_payload({"id": request["id"], "result": result}),
            )
        )

    def close(self):
        if self._conn is not None:
            self._conn.close()
        self._lis.close()


class TestOutOfOrderCompletion:
    def test_futures_complete_out_of_order(self):
        scripted = ScriptedServer()
        done = threading.Event()

        def serve():
            scripted.accept()
            first = scripted.read()
            second = scripted.read()
            # answer in reverse arrival order
            scripted.reply(second, {"tag": "second"})
            scripted.reply(first, {"tag": "first"})
            done.set()

        threading.Thread(target=serve, daemon=True).start()
        client = RpcClient(*scripted.address, deadline=2.0)
        f1 = client.submit("ping", {"n": 1})
        f2 = client.submit("ping", {"n": 2})
        # the later future resolves first; each matches its own id
        assert f2.result() == {"tag": "second"}
        assert f1.result() == {"tag": "first"}
        assert done.wait(2.0)
        assert client.log.rpcs == 2
        assert client.log.retries == 0
        client.close()
        scripted.close()

    def test_submitted_requests_are_on_the_wire_before_result(self):
        """Pipelining means the Nth request is sent before the first
        response is consumed — the server sees both without replying."""
        scripted = ScriptedServer()
        both_seen = threading.Event()
        requests = []

        def serve():
            scripted.accept()
            requests.append(scripted.read())
            requests.append(scripted.read())
            both_seen.set()
            for req in requests:
                scripted.reply(req, None)

        threading.Thread(target=serve, daemon=True).start()
        client = RpcClient(*scripted.address, deadline=2.0)
        f1 = client.submit("ping", {})
        f2 = client.submit("ping", {})
        assert both_seen.wait(2.0)  # neither result() consumed yet
        assert f1.result() is None
        assert f2.result() is None
        client.close()
        scripted.close()

    def test_real_server_pipelined_flag_upgrades_connection(self, served_store):
        store, server = served_store
        store.add_edge(1, 2, 1)
        client = make_client(server)
        futures = [
            client.submit("multi_get", {"vs": [1]}, flags=FLAG_PIPELINE)
            for _ in range(8)
        ]
        for future in futures:
            reply = future.result()
            assert "1" in reply  # JSON record-map form (no accept header)
        assert server.stats_snapshot()["pipelined_conns"] == 1
        client.close()


class TestWindowAndDeadlines:
    def test_window_must_be_positive(self, served_store):
        _, server = served_store
        with pytest.raises(ValueError):
            make_client(server, window=0)

    def test_full_window_blocks_then_deadline(self):
        scripted = ScriptedServer()
        threading.Thread(target=scripted.accept, daemon=True).start()
        client = RpcClient(
            *scripted.address,
            deadline=0.05,
            window=2,
            retry=RetryPolicy(max_attempts=1, base_delay=0.001),
        )
        f1 = client.submit("ping", {})
        f2 = client.submit("ping", {})
        f3 = client.submit("ping", {})  # window full: send blocks, then fails
        with pytest.raises(RetriesExhausted) as err:
            f3.result()
        assert isinstance(err.value.last, DeadlineExceeded)
        for future in (f1, f2):
            with pytest.raises(RetriesExhausted):
                future.result()
        client.close()
        scripted.close()

    def test_abandoned_attempt_late_response_discarded(self):
        """A response that arrives after its attempt timed out must never
        complete the retried request — ids disambiguate."""
        scripted = ScriptedServer()
        ready = threading.Event()

        def serve():
            scripted.accept()
            first = scripted.read()  # withheld past the deadline
            retry = scripted.read()  # the retry attempt
            scripted.reply(first, {"from": "stale"})
            scripted.reply(retry, {"from": "retry"})
            ready.set()

        threading.Thread(target=serve, daemon=True).start()
        client = RpcClient(
            *scripted.address,
            deadline=0.1,
            retry=RetryPolicy(max_attempts=3, base_delay=0.001),
        )
        future = client.submit("ping", {})
        assert future.result() == {"from": "retry"}
        assert ready.wait(2.0)
        assert client.log.retries == 1
        assert client.log.deadline_hits == 1
        client.close()
        scripted.close()

    def test_channel_death_fails_pending_and_redials(self, served_store):
        _, server = served_store
        client = make_client(server, deadline=1.0)
        scripted = ScriptedServer()

        def serve_then_die():
            scripted.accept()
            scripted.read()
            scripted.close()  # mid-flight connection loss

        # point the client's pipelined channel at the dying server
        client.host, client.port = scripted.address
        threading.Thread(target=serve_then_die, daemon=True).start()
        future = client.submit("ping", {})
        # redirect retries (and the fresh channel they dial) at the real
        # server, which answers: the future recovers transparently
        client.host, client.port = server.address
        assert future.result() == {}
        assert client.log.retries >= 1
        client.close()


class TestBatchSizePlumbing:
    def test_batch_size_controls_multi_get_chunking(self):
        client = make_store("net", batch_size=3)
        try:
            for v in range(10):
                client.ensure_vertex(v)
            client.prefetch(list(range(10)))
            assert client.net_log.per_op["multi_get"] == 4  # 3+3+3+1
        finally:
            client.close()

    def test_batch_size_must_be_positive(self):
        with pytest.raises(ValueError):
            make_store("net", batch_size=0)

    def test_batch_size_rejected_for_in_process_stores(self):
        with pytest.raises(ValueError, match="batch_size"):
            make_store("mv", batch_size=8)

    def test_server_max_batch_error_names_its_limit(self):
        store = MultiVersionStore()
        server = StoreServer(store, max_batch=4).start()
        client = make_client(server)
        with pytest.raises(ApplicationError, match="exceeds limit 4"):
            client.call("multi_get", {"vs": list(range(5))})
        with pytest.raises(ApplicationError, match="exceeds limit 4"):
            client.call(
                "put_edges",
                {"ts": 1, "updates": [[u, u + 1, True, None, None] for u in range(5)]},
                session=1,
                seq=1,
            )
        client.close()
        server.close()

    def test_client_clamps_put_edges_chunks_to_server_max_batch(self):
        inner = MultiVersionStore()
        server = StoreServer(inner, max_batch=2).start()
        from repro.net.client import NetStoreClient

        client = NetStoreClient(server.address, batch_size=100)
        try:
            updates = [EdgeUpdate(u, u + 10, added=True) for u in range(5)]
            client.apply_edge_updates(1, updates)  # 3 chunks of <=2
            assert client.net_log.per_op["put_edges"] == 3
            assert sorted(inner.neighbors_at(0, 1)) == [10]
        finally:
            client.close()
            server.close()

    @pytest.fixture
    def small_batch_client(self):
        """A client asking for 100-record batches of a server allowing 2."""
        inner = MultiVersionStore()
        for v in range(6):
            inner.ensure_vertex(v)
        server = StoreServer(inner, max_batch=2).start()
        from repro.net.client import NetStoreClient

        client = NetStoreClient(server.address, batch_size=100)
        yield client
        client.close()
        server.close()

    def test_prefetch_clamps_chunks_to_server_max_batch(self, small_batch_client):
        client = small_batch_client
        assert client.prefetch(list(range(6))) == 6
        assert client.net_log.per_op["multi_get"] == 3

    def test_iter_records_clamps_chunks_to_server_max_batch(self, small_batch_client):
        client = small_batch_client
        assert [v for v, _ in client.iter_records()] == list(range(6))
        assert client.net_log.per_op["multi_get"] == 3

    @pytest.mark.parametrize("kind", ["remote", "net"])
    def test_prefetch_honours_cache_capacity(self, kind):
        """``cache_size`` caps the held copies of both client kinds (not a
        backing-store cache the client never reads), FIFO, for single
        fetches and ``net``'s batched ones alike."""
        client = make_store(kind, cache_size=2)
        try:
            for v in range(6):
                client.ensure_vertex(v)
            for v in range(6):
                client.neighbor_states_at(v, 1)
            assert list(client._cache) == [4, 5]  # FIFO
            client.drop_cache()
            if kind == "net":
                assert client.prefetch(list(range(6))) == 6
            else:
                for v in range(6):
                    client.neighbor_states_at(v, 1)
            assert list(client._cache) == [4, 5]
            assert client.log.fetches == 12
            assert sum(client.log.per_shard.values()) == 12
        finally:
            client.close()

    @pytest.mark.parametrize("kind", ["remote", "net"])
    def test_cache_size_zero_holds_nothing(self, kind):
        client = make_store(kind, cache_size=0)
        try:
            client.add_edge(1, 2, 1)
            assert client.neighbors_at(1, 1) == [2]
            client.add_edge(1, 3, 2)
            assert client.neighbors_at(1, 2) == [2, 3]
            assert client._cache == {} and client.log.fetches == 2
        finally:
            client.close()

    def test_prefetch_ships_a_repeated_vertex_once(self):
        client = make_store("net")
        try:
            client.ensure_vertex(1)
            assert client.prefetch([1, 1, 2, 1]) == 2
            assert client.log.fetches == 2
        finally:
            client.close()

    def test_mine_accepts_store_batch_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.generators import erdos_renyi
        from repro.graph.io import write_edge_list

        path = tmp_path / "g.el"
        write_edge_list(erdos_renyi(8, 14, seed=2), str(path))
        assert (
            main(
                [
                    "mine",
                    "3-C",
                    "--graph",
                    str(path),
                    "--store",
                    "net",
                    "--store-batch",
                    "7",
                    "--quiet",
                ]
            )
            == 0
        )


class TestPutEdgesEquivalence:
    def test_apply_edge_updates_matches_per_op_loop(self):
        window1 = [
            EdgeUpdate(1, 2, added=True, label="a"),
            EdgeUpdate(2, 3, added=True, direction="fwd"),
            EdgeUpdate(3, 4, added=True),
        ]
        window2 = [
            EdgeUpdate(1, 2, added=False),
            EdgeUpdate(1, 4, added=True, label="b"),
        ]
        direct = MultiVersionStore()
        direct.apply_edge_updates(1, window1)
        direct.apply_edge_updates(2, window2)
        net = make_store("net")
        try:
            net.apply_edge_updates(1, window1)
            net.apply_edge_updates(2, window2)
            # one RPC per batch_size chunk, not one per update
            assert net.net_log.per_op["put_edges"] == 2
            assert "add_edge" not in net.net_log.per_op
            for v in (1, 2, 3, 4):
                ours = net.get_record(v)
                theirs = direct.get_record(v)
                assert sorted(ours.edges) == sorted(theirs.edges)
                for dst in theirs.edges:
                    assert [
                        (iv.added_ts, iv.deleted_ts, iv.label, iv.direction)
                        for iv in ours.edges[dst]
                    ] == [
                        (iv.added_ts, iv.deleted_ts, iv.label, iv.direction)
                        for iv in theirs.edges[dst]
                    ]
        finally:
            net.close()

    def test_fallback_to_per_update_ops_without_binary_feature(self):
        net = make_store("net")
        try:
            net._binary = False  # pretend the server predates put_edges
            net.apply_edge_updates(1, [EdgeUpdate(1, 2, added=True)])
            assert net.net_log.per_op["add_edge"] == 1
            assert "put_edges" not in net.net_log.per_op
            assert net.neighbors_at(1, 1) == [2]
        finally:
            net.close()

    def test_empty_window_sends_nothing(self):
        net = make_store("net")
        try:
            base = net.net_log.rpcs
            net.apply_edge_updates(1, [])
            assert net.net_log.rpcs == base
        finally:
            net.close()

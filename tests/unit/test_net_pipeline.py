"""Fetch-ahead, batch plumbing and the coalesced ``put_edges`` write path.

``call()`` — a window of one request on the client's one connection —
keeps its own tests in ``test_net_rpc.py``; this file covers
``call_window()`` — several ``multi_get`` requests in flight on one
connection, replies matched by id, a transport fault sending what is
unanswered back through ``call()`` — plus the end-to-end ``batch_size``
configuration and ``put_edges``.
"""

import socket
import threading

import pytest
from net_proxy import FaultProxy

from repro.net.client import NetStoreClient
from repro.net.errors import ApplicationError, DeadlineExceeded, RetriesExhausted
from repro.net.frames import MessageType, encode_frame, read_frame
from repro.net.rpc import FETCH_AHEAD, RetryPolicy, RpcClient
from repro.net.server import StoreServer
from repro.net.wire import decode_payload, encode_payload
from repro.runtime.cluster import ClusterSpec
from repro.store.api import make_store
from repro.store.mvstore import MultiVersionStore, VertexRecord
from repro.types import EdgeUpdate
from tests.unit.test_net_rpc import make_client, served_store


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


class TestFetchAheadWindow:
    def test_window_requests_are_on_the_wire_before_the_first_reply(self):
        """Fetch-ahead means requests 2..FETCH_AHEAD are sent before reply
        1 is read — and no more than that: the next waits for a reply."""
        scripted = ScriptedServer()
        window_seen = threading.Event()
        overrun = []

        def serve():
            scripted.accept()
            requests = [scripted.read() for _ in range(FETCH_AHEAD)]
            window_seen.set()
            scripted._conn.settimeout(0.1)
            try:
                overrun.append(scripted._conn.recv(1, socket.MSG_PEEK))
            except socket.timeout:
                pass
            scripted._conn.settimeout(None)
            scripted.reply(requests[0], requests[0]["args"])
            requests.append(scripted.read())
            for req in requests[1:]:
                scripted.reply(req, req["args"])

        threading.Thread(target=serve, daemon=True).start()
        client = RpcClient(*scripted.address, deadline=2.0)
        args = [{"n": n} for n in range(FETCH_AHEAD + 1)]
        replies = client.call_window("ping", args)
        assert next(replies) == args[0]
        assert window_seen.is_set() and overrun == []
        assert list(replies) == args[1:]
        assert client.log.rpcs == FETCH_AHEAD + 1 and client.log.retries == 0
        client.close()
        scripted.close()

    def test_out_of_order_and_stale_replies_are_matched_by_id(self):
        scripted = ScriptedServer()

        def serve():
            scripted.accept()
            first, second = scripted.read(), scripted.read()
            scripted.reply({"id": 0}, "stale")  # answers nothing in flight
            scripted.reply(second, "second")
            scripted.reply(first, "first")

        threading.Thread(target=serve, daemon=True).start()
        client = RpcClient(*scripted.address, deadline=2.0)
        assert list(client.call_window("ping", [{}, {}])) == ["first", "second"]
        client.close()
        scripted.close()

    def test_unanswered_requests_go_through_call_after_a_fault(self, served_store):
        """The window's connection dies with both requests in flight:
        each is resent by call() — here to a server that answers."""
        _, server = served_store
        scripted = ScriptedServer()

        def serve_then_die():
            scripted.accept()
            scripted.read()
            scripted.close()  # mid-flight connection loss

        threading.Thread(target=serve_then_die, daemon=True).start()
        client = make_client(server, deadline=1.0)
        # park a connection to the dying server in the idle slot; redials
        # reach the real one
        client.host, client.port = scripted.address
        client._idle = client._checkout()
        client.host, client.port = server.address
        assert list(client.call_window("ping", [{}, {}])) == [{}, {}]
        assert client.log.retries >= 1
        client.close()

    @pytest.mark.parametrize("max_attempts", [1, 2, 3])
    def test_a_silent_window_spends_the_same_attempts_as_call(self, max_attempts):
        """The window's send is attempt 0 of each request in it: after its
        deadline a request gets a backoff and ``max_attempts - 1`` resends,
        exactly what ``call`` gives a request that never answers."""
        silent = socket.socket()  # the kernel completes each dial; nobody reads
        silent.bind(("127.0.0.1", 0))
        silent.listen(16)
        policy = RetryPolicy(max_attempts=max_attempts, base_delay=0.001)
        logs = []
        for method in ("call", "call_window"):
            slept = []
            client = RpcClient(
                *silent.getsockname(), deadline=0.05, retry=policy, sleep=slept.append
            )
            with pytest.raises(RetriesExhausted) as err:
                if method == "call":
                    client.call("ping", {})
                else:
                    list(client.call_window("ping", [{}]))
            assert err.value.attempts == max_attempts
            assert isinstance(err.value.last, DeadlineExceeded)
            log = client.log
            logs.append((log.rpcs, log.retries, log.deadline_hits, len(slept)))
            client.close()
        n = max_attempts
        assert logs == [(n, n - 1, n, n - 1)] * 2
        silent.close()

    def test_an_empty_window_dials_nothing(self):
        client = RpcClient("127.0.0.1", 1)  # nothing listens there
        assert list(client.call_window("multi_get", [])) == []
        assert client.log.rpcs == 0

    def test_a_finished_window_returns_its_connection(self, served_store):
        _, server = served_store
        client = make_client(server)
        assert list(client.call_window("ping", [{}] * 5)) == [{}] * 5
        client.call("ping", {})
        with server._lock:
            assert len(server._conns) == 1  # the call reused the window's
        client.close()

    def test_a_call_inside_a_window_dials_its_own_connection(self, served_store):
        """The window holds the one connection, so a call made while it
        runs dials another; whichever finishes second finds the idle slot
        full and closes its connection."""
        _, server = served_store
        client = make_client(server)
        client.call("ping", {})
        window_conn = client._idle
        replies = client.call_window("ping", [{}] * 2)
        assert next(replies) == {}
        assert client._idle is None  # the window holds it
        assert client.call("ping", {}) == {}
        call_conn = client._idle
        assert call_conn is not None and call_conn is not window_conn
        assert list(replies) == [{}]
        assert client._idle is call_conn and window_conn.sock.fileno() == -1
        client.close()
        assert call_conn.sock.fileno() == -1

    def test_an_error_reply_in_flight_with_others_drops_the_connection(
        self, served_store
    ):
        """An ERROR reply keeps the connection only when nothing else is
        in flight on it (``call``); mid-window, the connection goes."""
        _, server = served_store
        client = make_client(server)
        replies = client.call_window("no_such_op", [{}, {}])
        with pytest.raises(ApplicationError):
            next(replies)
        assert client._idle is None
        with pytest.raises(ApplicationError):
            client.call("no_such_op", {})
        assert client._idle is not None
        client.close()


def sequential_prefetch(client, vertices):
    """What ``prefetch`` charges, fetched one ``call`` per chunk."""
    missing = [v for v in dict.fromkeys(vertices) if v not in client._cache]
    for chunk in client._chunks(missing):
        reply = client._rpc.call("multi_get", {"vs": chunk})
        entries = sum(
            client._hold(v, reply.records.get(v) or VertexRecord()) for v in chunk
        )
        client.log.simulated_seconds += (
            client.costs.round_trip + entries * client.costs.per_edge
        )


class TestFetchAheadUnderFaults:
    """The window under FaultProxy schedules fills the held copies in
    request order, with :class:`FetchLog` charges equal to sequential
    calls: a dropped frame costs a deadline and a resend, a duplicated
    reply is discarded by id, a reordered one is matched by id."""

    VERTICES = list(range(40))

    @pytest.fixture
    def served(self):
        inner = MultiVersionStore()
        inner.apply_edge_updates(
            1, [EdgeUpdate(v, v + 1 + v % 3, added=True) for v in self.VERTICES]
        )
        inner.apply_edge_updates(2, [EdgeUpdate(3, 4, added=False)])
        server = StoreServer(inner).start()
        yield server
        server.close()

    @pytest.mark.parametrize(
        "faults",
        [
            {"dup_every": 3},
            {"drop_every": 7},
            {"reorder_every": 2},
            {"reorder_every": 3, "drop_every": 11, "dup_every": 5},
        ],
        ids=["dups", "drops", "reorders", "reorders+drops+dups"],
    )
    def test_window_fills_in_request_order(self, served, faults):
        reference = NetStoreClient(served.address, batch_size=3)
        sequential_prefetch(reference, self.VERTICES)
        proxy = FaultProxy(served.address, **faults).start()
        client = NetStoreClient(
            proxy.address,
            batch_size=3,
            deadline=0.15,
            retry=RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05),
        )
        try:
            assert client.prefetch(self.VERTICES) == len(self.VERTICES)
            assert list(client._cache) == list(reference._cache)
            assert client._cache == reference._cache
            assert client.log == reference.log
            assert sum(proxy.fault_counts()) + proxy.reorder_count() > 0
        finally:
            client.close()
            proxy.close()
            reference.close()


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
        updates = [EdgeUpdate(u, u + 1, added=True) for u in range(5)]
        with pytest.raises(ApplicationError, match="exceeds limit 4"):
            client.call("put_edges", {"ts": 1, "updates": updates}, session=1, seq=1)
        client.close()
        server.close()

    def test_client_clamps_put_edges_chunks_to_server_max_batch(self):
        inner = MultiVersionStore()
        server = StoreServer(inner, max_batch=2).start()
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
            assert sum(client.access_stats.per_shard.values()) == 12
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: make_store("remote", cache_size=-1),
            lambda: make_store("net", cache_size=-1),
            lambda: ClusterSpec(cache_capacity_per_machine=-3),
        ],
        ids=["remote", "net", "ClusterSpec"],
    )
    def test_a_negative_cache_capacity_is_refused(self, build):
        """Refused when built, not on the first read: a client holding
        ``len(cache) >= -1`` copies would evict from an empty cache."""
        with pytest.raises(ValueError, match="must be at least 0"):
            build()

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

    def test_empty_window_sends_nothing(self):
        net = make_store("net")
        try:
            base = net.net_log.rpcs
            net.apply_edge_updates(1, [])
            assert net.net_log.rpcs == base
        finally:
            net.close()

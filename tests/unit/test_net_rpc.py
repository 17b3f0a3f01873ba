"""RPC core behavior: deadlines, retries, backoff, reuse, exactly-once.

Fault scheduling is made deterministic by injecting the clock, sleep, and
RNG into :class:`~repro.net.rpc.RpcClient` — the same injectability that
keeps the production code repro-lint (RL001) clean.
"""

import random
import socket
import threading

import pytest

from repro.errors import InvalidUpdateError
from repro.net.errors import (
    ApplicationError,
    ConnectError,
    DeadlineExceeded,
    RetriesExhausted,
)
from repro.net.frames import MessageType, encode_frame, read_frame
from repro.net.rpc import NetLog, RetryPolicy, RpcClient
from repro.net.server import StoreServer
from repro.net.wire import decode_payload, encode_payload
from repro.store.mvstore import MultiVersionStore


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


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_delay=0.1, multiplier=2.0, max_delay=0.3, jitter=0.0
        )
        rng = random.Random(0)
        delays = [policy.backoff(a, rng) for a in range(4)]
        assert delays == [0.1, 0.2, 0.3, 0.3]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        a = [policy.backoff(0, random.Random(7)) for _ in range(1)]
        b = [policy.backoff(0, random.Random(7)) for _ in range(1)]
        assert a == b  # same seed, same schedule
        for _ in range(100):
            d = policy.backoff(0, random.Random(_))
            assert 0.05 <= d <= 0.15  # within +/- jitter fraction


class TestCallPath:
    def test_ping_and_latency_sample(self, served_store):
        _, server = served_store
        client = make_client(server)
        assert client.call("ping", {}) == {}
        assert client.log.rpcs == 1
        assert client.log.retries == 0
        assert len(client.log.latencies_s) == 1
        assert client.log.bytes_sent > 0 and client.log.bytes_received > 0
        client.close()

    def test_unknown_op_is_application_error(self, served_store):
        _, server = served_store
        client = make_client(server)
        with pytest.raises(ApplicationError) as err:
            client.call("no_such_op", {})
        assert err.value.remote_type == "UnknownOperationError"
        # application faults must not burn retries
        assert client.log.retries == 0
        client.close()

    def test_remote_exception_maps_to_local_type(self, served_store):
        _, server = served_store
        client = make_client(server)
        client.call("add_edge", {"u": 1, "v": 2, "ts": 1})
        with pytest.raises(InvalidUpdateError):
            client.call("add_edge", {"u": 1, "v": 2, "ts": 2})
        client.close()

    def test_connection_reuse_via_pool(self, served_store):
        _, server = served_store
        client = make_client(server)
        for _ in range(5):
            client.call("ping", {})
        with server._lock:
            live_conns = len(server._conns)
        assert live_conns == 1  # the one idle connection served all calls
        client.close()

    def test_an_application_error_keeps_the_connection(self, served_store):
        """The server survives its own application errors: with nothing
        else in flight, the connection goes back to the idle slot."""
        _, server = served_store
        client = make_client(server)
        client.call("ping", {})
        conn = client._idle
        with pytest.raises(ApplicationError):
            client.call("no_such_op", {})
        assert client._idle is conn
        client.close()


class TestTransportFaults:
    def test_connect_refused_exhausts_retries(self):
        sleeps = []
        # a port with nothing listening: bind, learn the number, release
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = RpcClient(
            "127.0.0.1",
            port,
            retry=RetryPolicy(max_attempts=3, base_delay=0.01, jitter=0.0),
            sleep=sleeps.append,
        )
        with pytest.raises(RetriesExhausted) as err:
            client.call("ping", {})
        assert err.value.attempts == 3
        assert isinstance(err.value.last, ConnectError)
        assert sleeps == [0.01, 0.02]  # exponential, jitter disabled
        assert client.log.retries == 2
        client.close()

    def test_unresponsive_server_hits_deadline(self):
        # accepts connections but never replies
        sink = socket.socket()
        sink.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sink.bind(("127.0.0.1", 0))
        sink.listen(4)
        accepted = []
        threading.Thread(
            target=lambda: [accepted.append(sink.accept()[0]) for _ in range(4)],
            daemon=True,
        ).start()
        client = RpcClient(
            *sink.getsockname(),
            deadline=0.05,
            retry=RetryPolicy(max_attempts=2, base_delay=0.001, jitter=0.0),
        )
        with pytest.raises(RetriesExhausted) as err:
            client.call("ping", {})
        assert isinstance(err.value.last, DeadlineExceeded)
        assert client.log.deadline_hits == 2
        client.close()
        sink.close()

    def test_stale_duplicate_responses_are_discarded(self):
        # a server that answers every request twice: once with a stale id,
        # then twice with the real id (the second real one goes stale too)
        lis = socket.socket()
        lis.bind(("127.0.0.1", 0))
        lis.listen(1)

        def serve():
            conn, _ = lis.accept()
            for _ in range(2):
                _, _, payload = read_frame(conn.recv)
                req = decode_payload(payload)
                for reply_id in (req["id"] - 1, req["id"], req["id"]):
                    conn.sendall(
                        encode_frame(
                            MessageType.RESPONSE,
                            encode_payload(
                                {"id": reply_id, "result": {"echo": reply_id}}
                            ),
                        )
                    )
            conn.close()

        threading.Thread(target=serve, daemon=True).start()
        client = RpcClient(*lis.getsockname(), deadline=2.0)
        first = client.call("ping", {})
        second = client.call("ping", {})
        # each call matched its own id, skipping stale frames in between
        assert first == {"echo": 1}
        assert second == {"echo": 2}
        client.close()
        lis.close()


class TestExactlyOnceWrites:
    def test_duplicate_seq_replays_cached_result(self, served_store):
        store, server = served_store
        client = make_client(server)
        args = {"u": 1, "v": 2, "ts": 1}
        r1 = client.call("add_edge", args, session=1, seq=1)
        # a retransmit of the same (session, seq) must not re-execute
        r2 = client.call("add_edge", args, session=1, seq=1)
        assert r1 == r2
        assert len(store.get_record(1).edges[2]) == 1
        # a *new* seq does execute (and here, correctly fails)
        with pytest.raises(InvalidUpdateError):
            client.call("add_edge", {"u": 1, "v": 2, "ts": 2}, session=1, seq=2)
        client.close()

    def test_sessions_are_isolated(self, served_store):
        store, server = served_store
        client = make_client(server)
        client.call("add_edge", {"u": 1, "v": 2, "ts": 1}, session=1, seq=1)
        # same seq under a different session is a distinct write
        with pytest.raises(InvalidUpdateError):
            client.call("add_edge", {"u": 1, "v": 2, "ts": 2}, session=2, seq=1)
        client.close()

    def test_hello_assigns_distinct_sessions(self, served_store):
        _, server = served_store
        client = make_client(server)
        s1 = client.call("hello", {})["session"]
        s2 = client.call("hello", {})["session"]
        assert s1 != s2
        assert client.call("hello", {"session": s1})["session"] == s1
        client.close()


class TestNetLog:
    def test_latency_sample_cap(self):
        log = NetLog()
        for i in range(5000):
            log.observe_latency(0.001)
        from repro.net.rpc import LATENCY_SAMPLE_CAP

        assert len(log.latencies_s) == LATENCY_SAMPLE_CAP

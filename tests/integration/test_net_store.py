"""The wire-backed store end to end: conformance, accounting, CLI.

The headline invariant — mining over :class:`NetStoreClient` is
byte-identical to the in-process stores — is enforced by the property
matrix in ``tests/property/test_store_equivalence.py`` (``net`` is a
registry kind).  This file covers what the matrix does not: FetchLog
parity with the simulated client (the accounting satellite), the
``repro_net_*`` telemetry bridge, fork/reconnect under the process
backend, and the ``repro serve-store`` CLI loopback path.
"""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import CliqueMining
from repro.graph.generators import erdos_renyi
from repro.graph.io import write_edge_list
from repro.net import NetStoreClient, RetryPolicy, StoreServer
from repro.net.errors import NetError
from repro.runtime.session import StreamingSession
from repro.store.api import make_store
from repro.store.mvstore import MultiVersionStore
from repro.store.remote import RemoteStoreClient
from repro.streaming.ingress import IngressNode
from repro.types import Update

SRC = str(Path(__file__).resolve().parents[2] / "src")


def fixed_script():
    """A deterministic add/delete script over a small vertex set."""
    graph = erdos_renyi(12, 26, seed=7)
    edges = graph.sorted_edges()
    script = [(1, key, True) for key in edges[:10]]
    script += [(2, key, True) for key in edges[10:18]]
    script += [(3, edges[2], False), (3, edges[5], False)]
    script += [(4, key, True) for key in edges[18:]]
    script += [(5, edges[11], False)]
    return script


def apply_script(store, script):
    for ts, (u, v), added in script:
        if added:
            store.add_edge(u, v, ts)
        else:
            store.delete_edge(u, v, ts)
    return store


def read_workload(store, script):
    """A fixed read pattern touching every script vertex at several ts."""
    vertices = sorted({v for _, key, _ in script for v in key})
    out = []
    for ts in (1, 3, 5):
        for v in vertices:
            out.append(sorted(store.neighbor_states_at(v, ts).items()))
            out.append(store.vertex_label_at(v, ts))
        for u, v in [(0, 1), (2, 3), (4, 5)]:
            out.append(store.edge_alive_at(u, v, ts))
    return out


class TestFetchAccountingParity:
    """Satellite: NetStoreClient's FetchLog reconciles with the simulated
    RemoteStoreClient's, field for field, on an identical workload."""

    def test_fetch_log_fields_match_simulated_client(self):
        script = fixed_script()
        remote = apply_script(make_store("remote"), script)
        net = apply_script(make_store("net"), script)
        try:
            assert read_workload(remote, script) == read_workload(net, script)
            assert net.log.fetches == remote.log.fetches
            assert net.log.records_bytes_proxy == remote.log.records_bytes_proxy
            assert net.log.simulated_seconds == pytest.approx(
                remote.log.simulated_seconds
            )
            assert net.log.per_shard == remote.log.per_shard
        finally:
            net.close()

    def test_store_stats_keys_superset_of_remote(self):
        script = fixed_script()
        remote = apply_script(make_store("remote"), script)
        net = apply_script(make_store("net"), script)
        try:
            read_workload(remote, script)
            read_workload(net, script)
            remote_stats = remote.store_stats()
            net_stats = net.store_stats()
            assert set(remote_stats) <= set(net_stats)
            assert net_stats["kind"] == "net"
            assert net_stats["fetches"] == remote_stats["fetches"]
            assert net_stats["fetch_bytes_proxy"] == remote_stats["fetch_bytes_proxy"]
            assert net_stats["net_rpcs"] > 0
            assert net_stats["net_bytes_sent"] > 0
            assert net_stats["net_retries"] == 0  # loopback, no faults
        finally:
            net.close()

    def test_cache_invalidation_parity_on_writes(self):
        inner = MultiVersionStore()
        remote = RemoteStoreClient(inner)
        net = make_store("net")
        try:
            for store in (remote, net):
                store.add_edge(1, 2, 1)
                store.neighbor_states_at(1, 1)  # fetch + cache
                store.add_edge(1, 3, 2)  # written through to 1's copy
                assert store.neighbor_states_at(1, 2) == {
                    2: (True, True),
                    3: (False, True),
                }  # no re-fetch, and the new neighbour is there
            assert net.log.fetches == remote.log.fetches == 1
        finally:
            net.close()


class TestTelemetryBridge:
    def test_net_gauges_and_histogram_present(self):
        session = StreamingSession(
            CliqueMining(3, min_size=3), "serial", window_size=4, store="net"
        )
        session.submit_many(
            Update.add_edge(u, v) for u, v in erdos_renyi(10, 20, seed=3).sorted_edges()
        )
        session.flush()
        registry = session.collect_registry()
        dumped = {f.name: f for f in registry.families()}
        session.close()
        assert dumped["repro_net_rpcs"].kind == "gauge"
        assert dumped["repro_net_rpcs"].labels().value > 0
        assert dumped["repro_net_bytes_sent"].labels().value > 0
        assert dumped["repro_net_retries"].labels().value == 0
        hist = dumped["repro_net_rpc_seconds"].labels()
        assert hist.count > 0

    @pytest.mark.parametrize("kind", ["net", "remote"])
    def test_cache_keys_describe_the_fetched_copy_cache(self, kind):
        """``cache_*`` in ``store_stats`` count the client's held records,
        and they reach the registry through the ``repro_store_cache_*``
        gauges."""
        session = StreamingSession(
            CliqueMining(3, min_size=3), "serial", window_size=4, store=kind
        )
        store = session.store
        store.add_edge(1, 2, 1)
        store.neighbor_states_at(1, 1)  # miss
        store.neighbor_states_at(1, 1)  # hit
        store.edge_alive_at(1, 2, 1)  # hit
        stats = store.store_stats()
        assert (stats["cache_hits"], stats["cache_misses"]) == (2, 1)
        assert stats["cache_hit_ratio"] == pytest.approx(2 / 3)
        assert stats["cache_entries"] == stats["client_cache_entries"] == 1
        dumped = {f.name: f for f in session.collect_registry().families()}
        session.close()
        assert dumped["repro_store_cache_hits"].labels().value == 2
        assert dumped["repro_store_cache_misses"].labels().value == 1
        assert dumped["repro_store_cache_hit_ratio"].labels().value == pytest.approx(
            2 / 3
        )
        assert dumped["repro_store_cache_entries"].labels().value == 1

    def test_counter_totals_identical_to_mv(self):
        """The cross-backend determinism contract extends across the wire:
        wire noise lives in gauges, never in counters."""

        def totals(kind):
            session = StreamingSession(
                CliqueMining(3, min_size=3), "serial", window_size=4, store=kind
            )
            session.submit_many(
                Update.add_edge(u, v)
                for u, v in erdos_renyi(10, 20, seed=3).sorted_edges()
            )
            session.flush()
            out = session.collect_registry().counter_totals()
            session.close()
            return out

        assert totals("net") == totals("mv")


class TestLifecycleAndForking:
    def test_close_shuts_embedded_server(self):
        client = make_store("net")
        client.add_edge(1, 2, 1)
        addr = client.address
        client.close()
        with pytest.raises(NetError):
            NetStoreClient(
                addr, deadline=0.2, retry=RetryPolicy(max_attempts=1, base_delay=0.001)
            )

    def test_pickled_client_reconnects(self):
        client = make_store("net")
        client.add_edge(1, 2, 1)
        clone = pickle.loads(pickle.dumps(client))
        try:
            assert clone.neighbors_at(1, 1) == [2]
            assert clone.latest_timestamp == 1
            # the clone has its own session and fetch accounting
            assert clone.log.fetches == 1
        finally:
            clone.close()
            client.close()

    def test_process_backend_forks_and_reconnects(self):
        """Forked pool workers must redial rather than share the parent's
        socket; a window wide enough to defeat the inline fallback forces
        real child processes through the TCP path."""
        updates = [
            Update.add_edge(u, v)
            for u, v in erdos_renyi(14, 34, seed=11).sorted_edges()
        ]
        outputs = []
        for kind in ("mv", "net"):
            session = StreamingSession(
                CliqueMining(3, min_size=3),
                "process",
                window_size=len(updates),
                num_workers=2,
                store=kind,
            )
            session.submit_many(updates)
            session.flush()
            outputs.append(session.deltas())
            session.close()
        assert outputs[0] == outputs[1]


class TestWriteClock:
    def test_the_client_clock_follows_the_servers_window_by_window(self):
        """Write replies are the client's only clock refresh: no RPC per
        window, yet after every window ``latest_timestamp`` is the
        server store's."""
        backing = MultiVersionStore()
        server = StoreServer(backing).start()
        store = NetStoreClient(server.address)
        session = StreamingSession(
            CliqueMining(3, min_size=3), window_size=8, store=store
        )
        edges = erdos_renyi(12, 24, seed=5).sorted_edges()
        try:
            for start in range(0, 24, 8):
                session.process(
                    Update.add_edge(u, v) for u, v in edges[start : start + 8]
                )
                assert backing.latest_timestamp == start // 8 + 1
                assert store.latest_timestamp == backing.latest_timestamp
        finally:
            session.close()
            store.close()
            server.close()


class TestBulkLoadOverTheWire:
    def test_deletions_after_wire_bulk_load_mine_identically_to_mv(self):
        """``NetStoreClient(address, graph=...)`` pushes the snapshot with
        ``put_record``, so the server's endpoint records share no interval
        objects; deleting preloaded edges must still tombstone both ends,
        or the stale endpoint yields spurious NEW deltas."""
        graph = erdos_renyi(24, 110, seed=3)
        edges = graph.sorted_edges()
        updates = [Update.delete_edge(u, v) for u, v in edges[::3]]
        updates += [Update.add_edge(u, v) for u, v in edges[:30:3]]
        server = StoreServer(MultiVersionStore()).start()
        try:
            client = NetStoreClient(server.address, graph=graph)
            via_net = StreamingSession(
                CliqueMining(4, min_size=3), window_size=7, store=client
            )
            via_mv = StreamingSession(
                CliqueMining(4, min_size=3), window_size=7, initial_graph=graph
            )
            outputs = []
            for session in (via_net, via_mv):
                session.submit_many(updates)
                session.flush()
                outputs.append(session.deltas())
            client.close()
        finally:
            server.close()
        assert outputs[0] == outputs[1]
        assert any(d.is_rem() for d in outputs[0])
        assert any(d.is_new() for d in outputs[0])


class WindowLog:
    """A queue that records each applied window and how much of the input
    had been consumed when it closed."""

    def __init__(self, consumed):
        self.consumed = consumed
        self.windows = []

    def append_window(self, ts, updates):
        self.windows.append((ts, list(updates), len(self.consumed)))


class TestIngressReadAhead:
    """The ingress reads a chunk's endpoint records in one batch before it
    sanitises the chunk, instead of one blocking ``get_record`` per cold
    endpoint."""

    PRELOAD = erdos_renyi(40, 90, seed=3)

    @staticmethod
    def cold_adds(n, seed=5):
        """``n`` edge additions among vertices the preload never touched."""
        return [
            Update.add_edge(100 + u, 100 + v)
            for u, v in erdos_renyi(30, n, seed=seed).sorted_edges()
        ]

    def mine_one_window(self, kind):
        store = make_store(kind, graph=self.PRELOAD)
        session = StreamingSession(
            CliqueMining(3, min_size=3), window_size=50, store=store
        )
        try:
            wire = store.take_net_delta() if kind == "net" else None
            session.submit_many(self.cold_adds(50))
            session.flush()
            if kind == "net":
                wire = store.take_net_delta()
            return session.deltas(), wire
        finally:
            session.close()
            store.close()

    def test_a_cold_window_costs_no_blocking_fetch(self):
        deltas, wire = self.mine_one_window("net")
        assert wire.per_op.get("get_record", 0) == 0
        assert wire.rpcs <= 2, wire.per_op  # multi_get, put_edges
        assert deltas == self.mine_one_window("mv")[0]
        assert deltas

    def test_a_generator_is_read_ahead_chunk_by_chunk_into_the_same_windows(self):
        """Windows close mid-chunk (dropped updates take no slot), and the
        windows, timestamps and verdicts equal per-update ``submit``."""
        preloaded = self.PRELOAD.sorted_edges()
        stream = self.cold_adds(60)
        stream += [Update.delete_edge(u, v) for u, v in preloaded[:30:3]]
        stream += self.cold_adds(60)[:20:2]  # duplicate adds: dropped
        stream += [Update.delete_edge(200, 201), Update.add_edge(*preloaded[1])]

        def ingest(feed):
            store = make_store("net", graph=self.PRELOAD)
            consumed = []
            log = WindowLog(consumed)
            ingress = IngressNode(store, log, window_size=25)

            def updates():
                for update in stream:
                    consumed.append(update)
                    yield update

            try:
                feed(ingress, updates())
                ingress.flush()
                verdicts = (ingress.updates_accepted, ingress.updates_dropped)
                return log.windows, verdicts, dict(store.net_log.per_op)
            finally:
                store.close()

        def one_by_one(ingress, updates):
            for update in updates:
                ingress.submit(update)

        windows, verdicts, ops = ingest(IngressNode.submit_many)
        windows_1, verdicts_1, ops_1 = ingest(one_by_one)
        assert [w[:2] for w in windows] == [w[:2] for w in windows_1]
        assert verdicts == verdicts_1 and verdicts[1] > 0
        assert len(windows) > 2
        # the generator is taken a chunk at a time, never whole
        assert windows[0][2] < len(stream)
        assert ops.get("get_record", 0) == 0 < ops_1["get_record"]


class TestServeStoreCli:
    def test_loopback_smoke(self, tmp_path):
        """The CI smoke step in miniature: serve-store in the background,
        mine --store net against it, diff against an mv run."""
        graph_file = tmp_path / "graph.el"
        write_edge_list(erdos_renyi(16, 40, seed=5), str(graph_file))
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-store", "--addr", "127.0.0.1:0"],
            stdout=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        )
        try:
            banner = server.stdout.readline()
            addr = banner.strip().rsplit(" ", 1)[-1]

            def mine(extra):
                return subprocess.run(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "mine",
                        "3-C",
                        "--graph",
                        str(graph_file),
                        "--window",
                        "10",
                    ]
                    + extra,
                    env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
                    capture_output=True,
                    text=True,
                    timeout=120,
                ).stdout

            via_net = mine(["--store", "net", "--store-addr", addr])
            via_mv = mine(["--store", "mv"])
            assert via_net == via_mv
            assert via_net.count("NEW") > 0
        finally:
            server.terminate()
            server.wait(timeout=10)

"""``NetStoreClient``: the full ``GraphStore`` protocol over real sockets.

The held copies, the read path, the write-through rule and the
:class:`~repro.store.remote.FetchLog` charging are
:class:`~repro.store.remote.CachedRecordClient`'s, shared with the
in-process :class:`~repro.store.remote.RemoteStoreClient`; this class is
the RPC transport under them.  A fetch is a ``get_record`` RPC to a
:class:`~repro.net.server.StoreServer`, a write an exactly-once RPC
(session, seq), and a window's edge writes ship as ``put_edges`` batches.
:meth:`NetStoreClient.prefetch` ships the records not yet held as
fetch-ahead ``multi_get`` chunks: the ingress calls it on a window's
endpoints before it sanitises the window
(:meth:`~repro.streaming.ingress.IngressNode.submit_many`), and
``apply_edge_updates`` again after the write, for any still missing.  It
is a capability the ingress looks up by name, not a ``GraphStore`` method.
Because engines, GC, and checkpointing only ever see the
:class:`~repro.store.api.GraphStore` protocol, mining output over this
client is byte-identical to the in-process stores.

Accounting runs double-entry:

* :attr:`log` is the base class's :class:`~repro.store.remote.FetchLog`
  (one fetch per first record touch, ``max(entries, 1)`` bytes-proxy,
  modeled latency; a ``multi_get`` chunk shares one round trip), so cost
  analyses and ``repro_store_*`` gauges stay comparable across clients;
* :attr:`net_log` is the wire truth (RPC count, retries, deadline hits,
  real bytes on the socket) from the underlying RPC client, surfaced as
  ``repro_net_*`` gauges.

Construction has two modes.  With an ``address`` the client connects to
an already-running server (``repro serve-store``).  Without one it spawns
an **embedded loopback server** over a fresh in-process store — that is
what ``make_store("net")`` uses, so ``mine --store net`` works standalone
while still pushing every record over a real TCP socket.

The client survives pickling (the process backend ships the store to
workers): sockets and the embedded server stay behind, and the unpickled
copy redials the same address with a fresh session — whose ``hello``
reply also carries the served store's capability facts.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.net.rpc import DEFAULT_DEADLINE, NetLog, RetryPolicy, RpcClient
from repro.net.server import StoreServer
from repro.net.wire import (
    RecordsPayload,
    decode_reclaim_stats,
    decode_timestamp,
    decode_updated_keys,
    split_address,
)
from repro.store.api import ReclaimStats
from repro.store.mvstore import MultiVersionStore, VertexRecord
from repro.store.remote import CachedRecordClient, FetchCosts
from repro.store.shard import AccessStats, ShardMap
from repro.telemetry import Telemetry, ensure
from repro.types import EdgeKey, EdgeUpdate, Label, Timestamp, VertexId

#: default records per multi_get RPC when scanning (iter_records, prefetch);
#: override per client with ``NetStoreClient(batch_size=...)`` or end to end
#: with ``mine --store-batch``
BATCH_SIZE = 256

Address = Union[str, Tuple[str, int]]


class NetStoreClient(CachedRecordClient):
    """Worker-side store client speaking framed RPC over TCP.

    Every record it holds was decoded from a server reply, so each is a
    private copy.  A window's endpoints not yet held arrive in batched
    ``multi_get`` chunks (:meth:`prefetch`) before the ingress sanitises
    the window, so sanitisation and EXPLORE read held copies.  Like its
    :class:`~repro.net.rpc.RpcClient`, it is used from one thread per
    client and takes no locks.
    """

    kind = "net"

    def __init__(
        self,
        address: Optional[Address] = None,
        *,
        costs: FetchCosts = FetchCosts(),
        cache_capacity: Optional[int] = None,
        deadline: float = DEFAULT_DEADLINE,
        retry: Optional[RetryPolicy] = None,
        batch_size: int = BATCH_SIZE,
        num_shards: int = 8,
        graph=None,
        ts: Timestamp = 1,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        super().__init__(costs, cache_capacity)
        self.batch_size = batch_size
        self.telemetry = ensure(telemetry)
        self._updated_memo: Optional[Tuple[Timestamp, Dict[EdgeKey, bool]]] = None
        self._server: Optional[StoreServer] = None
        load_graph = None
        if address is None:
            inner = (
                MultiVersionStore.from_adjacency(graph, ts=ts, num_shards=num_shards)
                if graph is not None
                else MultiVersionStore(num_shards=num_shards)
            )
            # the embedded loopback server shares this process's telemetry,
            # so its server spans land in the same trace file as the client's
            self._server = StoreServer(inner, telemetry=telemetry).start()
            host, port = self._server.address
        else:
            host, port = (
                split_address(address) if isinstance(address, str) else address
            )
            load_graph = graph  # external server: bulk-load over the wire
        self._rpc = RpcClient(
            host,
            port,
            deadline=deadline,
            retry=retry,
            telemetry=telemetry,
        )
        hello = self._rpc.call("hello", {})
        self._session: int = hello["session"]
        self._server_max_batch = int(hello["max_batch"])
        # the served store's capability facts; a hello that carries none
        # leaves the client assuming it may hold anything: all three True
        facts = hello.get("facts") or {}
        self._has_vertex_labels = bool(facts.get("has_vertex_labels", True))
        self._has_edge_labels = bool(facts.get("has_edge_labels", True))
        self._has_directions = bool(facts.get("has_directions", True))
        self._seq = 0
        self._latest: Timestamp = decode_timestamp(hello["latest_ts"])
        self.shards = ShardMap(hello["num_shards"])
        self.access_stats = AccessStats(num_shards=hello["num_shards"])
        if load_graph is not None:
            self._bulk_load(load_graph, ts)

    def _bulk_load(self, graph, ts: Timestamp) -> None:
        """Push an initial snapshot to an external server, record by record."""
        staged = MultiVersionStore.from_adjacency(
            graph, ts=ts, num_shards=self.shards.num_shards
        )
        for v, record in staged.iter_records():
            self.put_record(v, record)
        self.set_latest_timestamp(max(ts, self._latest))

    # -- wire accounting ---------------------------------------------------

    @property
    def net_log(self) -> NetLog:
        """Wire-level truth: RPCs, retries, deadline hits, real bytes."""
        return self._rpc.log

    def take_net_delta(self) -> NetLog:
        """Wire activity since the last take (see
        :meth:`~repro.net.rpc.RpcClient.take_log_delta`).

        This is what a process worker ships back per window: deltas
        partition its client's own activity (a forked worker's first
        delta leaves out the history it inherited), so the parent can
        accumulate them without resetting or double-counting.
        """
        return self._rpc.take_log_delta()

    @property
    def address(self) -> Tuple[str, int]:
        return (self._rpc.host, self._rpc.port)

    # -- reads over the wire -----------------------------------------------

    def get_record(self, v: VertexId) -> Optional[VertexRecord]:
        return self._rpc.call("get_record", {"v": v}).records.get(v)

    def _chunks(self, items: list) -> List[list]:
        """``items`` cut to what one RPC may carry: :attr:`batch_size`,
        clamped to the ``max_batch`` the server advertised in hello."""
        size = min(self.batch_size, self._server_max_batch)
        return [items[i : i + size] for i in range(0, len(items), size)]

    def _multi_get_stream(
        self, vertices: List[VertexId]
    ) -> Iterator[List[Tuple[VertexId, Optional[VertexRecord]]]]:
        """``(v, record)`` pairs per :meth:`_chunks` chunk, in order: one
        ``multi_get`` each, :data:`~repro.net.rpc.FETCH_AHEAD` of them in
        flight on one connection (see
        :meth:`~repro.net.rpc.RpcClient.call_window`)."""
        chunks = self._chunks(vertices)
        replies = self._rpc.call_window("multi_get", [{"vs": chunk} for chunk in chunks])
        # replies first: zip then runs the window to its end, which hands
        # its connection back
        for reply, chunk in zip(replies, chunks):
            yield [(v, reply.records.get(v)) for v in chunk]

    def prefetch(self, vertices: List[VertexId]) -> int:
        """Batch-fetch records not yet cached; returns how many shipped.

        One ``multi_get`` RPC per :meth:`_chunks` chunk, issued
        fetch-ahead (see :meth:`_multi_get_stream`).  Each record is
        charged to the :class:`FetchLog` as a fetch, but a batch shares
        one modeled round-trip — the batching discount the benchmark
        measures against per-record fetching.
        """
        missing = [v for v in dict.fromkeys(vertices) if v not in self._cache]
        for pairs in self._multi_get_stream(missing):
            batch_entries = sum(
                self._hold(v, record or VertexRecord()) for v, record in pairs
            )
            self.log.simulated_seconds += (
                self.costs.round_trip + batch_entries * self.costs.per_edge
            )
        return len(missing)

    # -- write path (RPCs tagged for exactly-once retries) -----------------

    def _write(self, op: str, args: dict) -> None:
        self._seq += 1
        result = self._rpc.call(op, args, session=self._session, seq=self._seq)
        self._latest = max(self._latest, decode_timestamp(result["latest_ts"]))
        self._updated_memo = None

    def _send_edge(
        self,
        u: VertexId,
        v: VertexId,
        ts: Timestamp,
        added: bool,
        label: Label = None,
        direction: Optional[str] = None,
    ) -> None:
        if added:
            args = {"u": u, "v": v, "ts": ts, "label": label, "direction": direction}
            self._write("add_edge", args)
        else:
            self._write("delete_edge", {"u": u, "v": v, "ts": ts})

    def _send_edge_updates(self, ts: Timestamp, updates: List[EdgeUpdate]) -> None:
        """Ship one window's updates as :meth:`_chunks`-bounded ``put_edges``
        batches, each with its own ``seq`` (a retried batch replays from
        the dedup window rather than re-applying), applied by the server
        in list order at the shared ``ts``."""
        for chunk in self._chunks(updates):
            self._write("put_edges", {"ts": ts, "updates": chunk})

    def apply_edge_updates(
        self, ts: Timestamp, updates: Iterable[EdgeUpdate]
    ) -> None:
        """Write the window through, then fill its endpoints: EXPLORE reads
        every one next.  Under ``IngressNode.submit_many`` the read-ahead
        already holds them and this sends nothing; it fills for callers of
        per-update ``submit`` and for copies a patch could not fit, by
        fetch-ahead ``multi_get`` instead of a blocking fetch each."""
        updates = list(updates)
        super().apply_edge_updates(ts, updates)
        self.prefetch([v for upd in updates for v in (upd.u, upd.v)])

    def _send_vertex_label(self, v: VertexId, ts: Timestamp, label: Label) -> None:
        self._write("set_vertex_label", {"v": v, "ts": ts, "label": label})

    def _send_record(self, v: VertexId, record: VertexRecord) -> None:
        self._write("put_record", {"v": v, "record": RecordsPayload({v: record})})

    def ensure_vertex(self, v: VertexId) -> None:
        self._write("ensure_vertex", {"v": v})

    def set_latest_timestamp(self, ts: Timestamp) -> None:
        self._write("set_latest_ts", {"ts": ts})
        self._latest = ts

    # -- the rest of the protocol, one RPC each ----------------------------

    def has_vertex(self, v: VertexId) -> bool:
        return bool(self._rpc.call("has_vertex", {"v": v}))

    def num_vertices(self) -> int:
        return int(self._rpc.call("num_vertices", {}))

    def vertices(self) -> Iterator[VertexId]:
        return iter(self._rpc.call("list_vertices", {}))

    @property
    def latest_timestamp(self) -> Timestamp:
        # tracked client-side: seeded by hello, advanced by write responses
        return self._latest

    def updated_keys_in(self, ts: Timestamp) -> Dict[EdgeKey, bool]:
        memo = self._updated_memo
        if memo is not None and memo[0] == ts:
            return memo[1]
        keys = decode_updated_keys(self._rpc.call("updated_keys_in", {"ts": ts}))
        self._updated_memo = (ts, keys)
        return keys

    def iter_records(self) -> Iterator[Tuple[VertexId, VertexRecord]]:
        for pairs in self._multi_get_stream(self._rpc.call("list_vertices", {})):
            for v, record in pairs:
                if record is not None:
                    yield v, record

    def _send_reclaim(self, horizon: Timestamp) -> ReclaimStats:
        # sequenced like a write: a retry must replay the stats of the pass
        # that ran, not run a second pass that finds nothing left to count
        self._seq += 1
        stats = decode_reclaim_stats(
            self._rpc.call(
                "reclaim", {"horizon": horizon}, session=self._session, seq=self._seq
            )
        )
        self._updated_memo = None
        return stats

    def _backing_stats(self) -> Dict[str, object]:
        """The server's ``store_stats`` and this client's wire truth."""
        stats: Dict[str, object] = dict(self._rpc.call("store_stats", {}))
        net = self.net_log
        stats["net_rpcs"] = net.rpcs
        stats["net_retries"] = net.retries
        stats["net_deadline_hits"] = net.deadline_hits
        stats["net_bytes_sent"] = net.bytes_sent
        stats["net_bytes_received"] = net.bytes_received
        return stats

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Drop the connection; shut the embedded server down if we own one."""
        self._rpc.close()
        if self._server is not None:
            self._server.close()

    def __reduce__(self):
        # workers get a fresh client to the same server: sockets and the
        # embedded server (if any) stay with the parent process
        reconnect = partial(
            NetStoreClient,
            costs=self.costs,
            cache_capacity=self.cache_capacity,
            deadline=self._rpc.deadline,
            retry=self._rpc.retry,
            batch_size=self.batch_size,
        )
        return reconnect, (self.address,)

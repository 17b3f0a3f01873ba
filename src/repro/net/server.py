"""``StoreServer``: any :class:`~repro.store.api.GraphStore` on a TCP port.

The server is a thin dispatch shell: one listening socket, one thread per
connection, one operation table mapping wire ``op`` names onto the public
store protocol (it deliberately touches nothing store-private, so every
store kind — mv, sharded, even another client — serves identically).
All store access is serialized under one lock; at reproduction scale the
store is CPU-light and the GIL would serialize it anyway, and one lock
keeps the write path's non-decreasing-timestamp invariant trivially safe
under concurrent clients.

Exactly-once writes
    Writes are not idempotent (re-adding a live edge is an
    ``InvalidUpdateError``), yet the client retries on transport faults —
    including the case where the write *applied* and only the response
    was lost.  The server therefore deduplicates: each client obtains a
    ``session`` id via the ``hello`` op and tags every write with a
    monotonically increasing ``seq``; the server remembers the last
    :data:`DEDUP_WINDOW` results per session and replays the remembered
    result for a repeated ``(session, seq)`` instead of re-executing.

Failures the handler can classify are returned as ``ERROR`` frames
carrying the exception's type name and message (the client maps names
back to local exception types); anything else tears down the connection,
which the client surfaces as a transport fault and retries elsewhere.
"""

from __future__ import annotations

import gc
import socket
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import TesseractError
from repro.net.errors import NetError, ProtocolError, TruncatedFrameError
from repro.net.frames import MessageType, encode_frame, read_frame
from repro.net.rpc import LATENCY_SAMPLE_CAP
from repro.net.wire import (
    RecordsPayload,
    decode_message,
    decode_trace_context,
    encode_message,
    encode_reclaim_stats,
    encode_updated_keys,
)
from repro.store.api import GraphStore, capability_facts
from repro.telemetry import MetricsRegistry, Telemetry, ensure
from repro.telemetry.bridge import NET_LATENCY_BUCKETS, store_to_registry
from repro.types import EdgeUpdate

#: write results remembered per session for retry deduplication
DEDUP_WINDOW = 64

#: most records one multi_get (or updates one put_edges) may carry
MAX_BATCH = 1024


class StoreServer:
    """Serve a :class:`GraphStore` over framed RPC on a TCP socket.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  :meth:`start` serves from a background thread (the
    embedded-store mode the ``net`` store kind uses), :meth:`serve_forever`
    serves from the calling thread (the ``repro serve-store`` CLI mode).
    """

    def __init__(
        self,
        store: GraphStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_batch: int = MAX_BATCH,
        telemetry: Optional[Telemetry] = None,
        clock=time.monotonic,
    ) -> None:
        self.store = store
        self.max_batch = max_batch
        self.telemetry = ensure(telemetry)
        self._clock = clock
        self._lock = threading.RLock()  # re-entrant: ops run under dispatch
        self._threads: List[threading.Thread] = []
        self._conns: List[socket.socket] = []
        self._next_session = 0
        # session id -> {seq: result}, insertion-ordered for pruning
        self._applied: Dict[int, Dict[int, Any]] = {}
        # always-on ops accounting (plain dicts under self._lock; projected
        # into a fresh MetricsRegistry only at scrape time)
        self._op_requests: Dict[str, int] = {}
        self._op_errors: Dict[str, int] = {}
        self._op_latencies: Dict[str, List[float]] = {}
        self._dedup_replays = 0
        self._inflight = 0
        self._closed = False
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(32)
        self._ops = self._build_ops()
        # the store this process serves leaves Python's collector until
        # close(), as a session's does (runtime/session.py)
        gc.freeze()

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        return self._sock.getsockname()[:2]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "StoreServer":
        """Accept connections from a daemon thread; returns self."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-store-server", daemon=True
        )
        with self._lock:
            self._threads.append(thread)
        thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept-and-dispatch loop; returns when :meth:`close` is called."""
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listening socket closed by close()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.append(conn)
                self._threads.append(handler)
            handler.start()

    def close(self) -> None:
        """Stop accepting, sever live connections, release the port."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns, self._conns = self._conns, []
        self._sock.close()  # unblocks accept()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        gc.unfreeze()

    # -- per-connection loop -----------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        """Answer one connection's requests in order, one at a time."""
        try:
            while True:
                try:
                    msg_type, flags, payload = read_frame(conn.recv)
                    if msg_type is not MessageType.REQUEST:
                        raise ProtocolError(f"client sent a {msg_type.name} frame")
                    request = decode_message(payload, flags)
                except TruncatedFrameError:
                    return  # peer went away (cleanly or not); nothing to answer
                except ProtocolError as exc:
                    self._send_error(conn, exc)
                    return  # framing is unrecoverable mid-stream
                conn.sendall(self._encode_reply(*self._dispatch(request)))
        except OSError:
            pass  # connection reset while replying; client will retry
        finally:
            conn.close()
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _dispatch(self, request: Dict[str, Any]) -> Tuple[MessageType, dict]:
        req_id = request.get("id")
        op = request.get("op")
        handler = self._ops.get(op)
        if handler is None:
            with self._lock:
                key = str(op)
                self._op_errors[key] = self._op_errors.get(key, 0) + 1
            return self._error(req_id, "UnknownOperationError", f"unknown op {op!r}")
        args = request.get("args") or {}
        session = request.get("session")
        seq = request.get("seq")
        # Server spans are recorded manually after the fact (see
        # Tracer.record_completed): the dispatch already brackets the work
        # with clock readings, so the traced path adds two short lock
        # acquisitions per RPC instead of two Span context managers.
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        # an untraced client sends no "trace" key, and a malformed one
        # decodes to None — either way the RPC
        # proceeds, its server span simply unparented.
        rctx = decode_trace_context(request.get("trace")) if traced else None
        start = self._clock()
        t_start = tracer.now() if traced else 0.0
        with self._lock:
            self._inflight += 1
            self._op_requests[op] = self._op_requests.get(op, 0) + 1
        ok = False
        replayed = False
        error_name: Optional[str] = None
        child = ""
        s_start = s_end = 0.0
        try:
            if traced:
                s_start = tracer.now()
            try:
                with self._lock:
                    if seq is not None and session is not None:
                        applied = self._applied.setdefault(session, {})
                        if seq in applied:
                            # retried write: replay remembered result
                            child = "dedup_replay"
                            result = applied[seq]
                            replayed = True
                        else:
                            child = "store." + op
                            result = handler(args)
                            applied[seq] = result
                            while len(applied) > DEDUP_WINDOW:
                                applied.pop(next(iter(applied)))
                    else:
                        child = "store." + op
                        result = handler(args)
            finally:
                if traced:
                    s_end = tracer.now()
        except (TesseractError, KeyError, ValueError, TypeError) as exc:
            error_name = type(exc).__name__
            return self._error(req_id, error_name, str(exc))
        else:
            ok = True
            return MessageType.RESPONSE, {"id": req_id, "result": result}
        finally:
            elapsed = self._clock() - start
            if traced:
                self._record_rpc_spans(
                    tracer,
                    op,
                    rctx,
                    t_start,
                    s_start,
                    s_end,
                    child,
                    seq if replayed else None,
                    error_name,
                )
            with self._lock:
                self._inflight -= 1
                if not ok:
                    self._op_errors[op] = self._op_errors.get(op, 0) + 1
                if replayed:
                    self._dedup_replays += 1
                samples = self._op_latencies.setdefault(op, [])
                if len(samples) < LATENCY_SAMPLE_CAP:
                    samples.append(elapsed)

    def _record_rpc_spans(
        self,
        tracer: Any,
        op: str,
        rctx: Optional[Tuple[str, int, str, int, int]],
        t_start: float,
        s_start: float,
        s_end: float,
        child: str,
        replay_seq: Optional[int],
        error_name: Optional[str],
    ) -> None:
        """Record the rpc.server span and its store/replay child post-hoc.

        The server span is a *remote-parented root*: its logical parent is
        the client's rpc.call span in another process, carried in ``rctx``
        and recorded as ``trace_id``/``remote_parent`` attrs for the merge
        tool; locally it parents nowhere (requests without a usable trace
        context stay plain roots).  ``child`` is empty only when dispatch
        failed before reaching the store (e.g. an unhashable session id),
        in which case just the server span is recorded.  The store child's
        interval includes store-lock serialization — waiting for the store
        *is* part of serving the request.
        """
        t_end = tracer.now()
        if rctx is not None:
            attrs: Dict[str, Any] = {
                "op": op,
                "attempt": rctx[4],
                "trace_id": rctx[0],
                "remote_parent": {"node": rctx[2], "span_id": rctx[1]},
            }
        else:
            attrs = {"op": op, "attempt": 0}
        if error_name is not None:
            attrs["error"] = error_name
        first = tracer.reserve_ids(2)
        spans = [(first, None, "rpc.server", t_start, t_end, attrs)]
        if child:
            child_attrs: Dict[str, Any] = {}
            if child == "dedup_replay":
                child_attrs = {"op": op, "seq": replay_seq}
            spans.append((first + 1, first, child, s_start, s_end, child_attrs))
        tracer.record_completed(spans)

    def _error(
        self, req_id: Any, remote_type: str, message: str
    ) -> Tuple[MessageType, dict]:
        return MessageType.ERROR, {
            "id": req_id,
            "error": {"type": remote_type, "message": message},
        }

    def _encode_reply(self, msg_type: MessageType, body: dict) -> bytes:
        """Frame one reply; a record the codec cannot carry (put into the
        served store in-process, never over the wire) answers an error."""
        try:
            payload, flags = encode_message(body)
        except ValueError as exc:
            msg_type, body = self._error(body.get("id"), "ValueError", str(exc))
            payload, flags = encode_message(body)
        return encode_frame(msg_type, payload, flags=flags)

    def _send_error(self, conn: socket.socket, exc: NetError) -> None:
        try:
            conn.sendall(
                self._encode_reply(*self._error(None, type(exc).__name__, str(exc)))
            )
        except OSError:
            pass

    # -- ops accounting ------------------------------------------------------

    def stats_snapshot(self) -> Dict[str, Any]:
        """One lock-consistent copy of the server's ops accounting.

        The shape is JSON-safe (this is also what the ``/statz`` telemetry
        endpoint returns, and what ``repro top`` renders).
        """
        with self._lock:
            return {
                "requests": dict(self._op_requests),
                "errors": dict(self._op_errors),
                "dedup_replays": self._dedup_replays,
                "inflight": self._inflight,
                "sessions": len(self._applied),
                "latencies_s": {
                    op: list(samples)
                    for op, samples in self._op_latencies.items()
                },
            }

    def collect_registry(self) -> MetricsRegistry:
        """A fresh registry projecting the server + store state at scrape time.

        Built per scrape (never cached) so each ``/metrics`` response is a
        self-consistent snapshot; request/error counts are true counters,
        latencies feed per-op histograms, and the served store's own
        ``repro_store_*`` / cache gauges ride along.
        """
        snap = self.stats_snapshot()
        registry = MetricsRegistry()
        requests = registry.counter(
            "repro_server_requests_total", "RPC requests dispatched, by op"
        )
        for op in sorted(snap["requests"]):
            requests.labels(op=op).set_total(snap["requests"][op])
        errors = registry.counter(
            "repro_server_errors_total", "RPC requests answered with an error, by op"
        )
        for op in sorted(snap["errors"]):
            errors.labels(op=op).set_total(snap["errors"][op])
        registry.counter(
            "repro_server_dedup_replays_total",
            "retried writes answered from the dedup window (not re-executed)",
        ).set_total(snap["dedup_replays"])
        registry.gauge(
            "repro_server_inflight_requests", "requests currently being served"
        ).set(snap["inflight"])
        registry.gauge(
            "repro_server_sessions", "client sessions with dedup state"
        ).set(snap["sessions"])
        latency = registry.histogram(
            "repro_server_request_seconds",
            "server-side request handling latency, by op (capped sample)",
            buckets=NET_LATENCY_BUCKETS,
        )
        for op in sorted(snap["latencies_s"]):
            child = latency.labels(op=op)
            for sample in snap["latencies_s"][op]:
                child.observe(sample)
        with self._lock:  # store reads are serialized like any dispatch
            store_to_registry(registry, self.store)
        return registry

    # -- the operation table -----------------------------------------------

    def _build_ops(self) -> Dict[str, Callable[[dict], Any]]:
        store = self.store
        ops: Dict[str, Callable[[dict], Any]] = {
            "ping": lambda a: {},
            "hello": self._op_hello,
            # record transfer (the fetch boundary)
            "get_record": lambda a: RecordsPayload({a["v"]: store.get_record(a["v"])}),
            "multi_get": self._op_multi_get,
            "put_record": self._write(self._op_put_record),
            "list_vertices": lambda a: sorted(store.vertices()),
            "has_vertex": lambda a: store.has_vertex(a["v"]),
            "num_vertices": lambda a: store.num_vertices(),
            "vertex_label_at": lambda a: store.vertex_label_at(a["v"], a["ts"]),
            "latest_ts": lambda a: store.latest_timestamp,
            "updated_keys_in": lambda a: encode_updated_keys(
                store.updated_keys_in(a["ts"])
            ),
            # write path (ingress)
            "add_edge": self._write(
                lambda a: store.add_edge(
                    a["u"],
                    a["v"],
                    a["ts"],
                    label=a.get("label"),
                    direction=a.get("direction"),
                )
            ),
            "delete_edge": self._write(
                lambda a: store.delete_edge(a["u"], a["v"], a["ts"])
            ),
            "set_vertex_label": self._write(
                lambda a: store.set_vertex_label(a["v"], a["ts"], a.get("label"))
            ),
            "ensure_vertex": self._write(lambda a: store.ensure_vertex(a["v"])),
            "put_edges": self._write(self._op_put_edges),
            "set_latest_ts": self._write(
                lambda a: store.set_latest_timestamp(a["ts"])
            ),
            # maintenance
            "reclaim": lambda a: encode_reclaim_stats(store.reclaim(a["horizon"])),
            "store_stats": lambda a: store.store_stats(),
        }
        return ops

    def _op_hello(self, args: dict) -> dict:
        session = args.get("session")
        if session is None:
            with self._lock:  # re-entrant under dispatch
                self._next_session += 1
                session = self._next_session
        return {
            "session": session,
            "kind": self.store.kind,
            "num_shards": self.store.shards.num_shards,
            "latest_ts": self.store.latest_timestamp,
            "max_batch": self.max_batch,
            "facts": capability_facts(self.store),
        }

    def _op_multi_get(self, args: dict) -> RecordsPayload:
        vs = args["vs"]
        if len(vs) > self.max_batch:
            raise ValueError(
                f"multi_get batch of {len(vs)} exceeds limit {self.max_batch}"
            )
        return RecordsPayload({v: self.store.get_record(v) for v in vs})

    def _op_put_record(self, args: dict) -> None:
        blob = args["record"]
        record = None
        if isinstance(blob, RecordsPayload):
            record = blob.records.get(args["v"])
        if record is None:
            raise ValueError("put_record requires the vertex's record blob")
        self.store.put_record(args["v"], record)

    def _op_put_edges(self, args: dict) -> None:
        """Apply one coalesced window of edge updates at a shared ``ts``.

        The updates arrive as the decoded ``upds`` blob and apply in
        payload order through the store's ``apply_edge_updates``, as an
        in-process client's window does.
        """
        updates = args["updates"]
        if len(updates) > self.max_batch:
            raise ValueError(
                f"put_edges batch of {len(updates)} exceeds limit {self.max_batch}"
            )
        if not all(isinstance(upd, EdgeUpdate) for upd in updates):
            raise ValueError("put_edges requires an updates blob")
        self.store.apply_edge_updates(args["ts"], updates)

    def _write(self, apply: Callable[[dict], None]) -> Callable[[dict], dict]:
        """Wrap a mutation: apply, then return the server's write clock.

        Every write response carries ``latest_ts`` so the client tracks
        the store clock without a per-read RPC.
        """

        def handler(args: dict) -> dict:
            apply(args)
            return {"latest_ts": self.store.latest_timestamp}

        return handler


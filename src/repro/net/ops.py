"""Live ops surface for a running :class:`~repro.net.server.StoreServer`.

A :class:`TelemetryServer` is a tiny raw-socket HTTP endpoint (this module
lives in :mod:`repro.net`, the one package allowed to touch sockets —
repro-lint RL007) bound next to a store server.  It serves three paths:

* ``GET /metrics`` — Prometheus text exposition of the store server's
  scrape-time registry (:meth:`StoreServer.collect_registry`): per-method
  request/error counters, per-method latency histograms, the in-flight
  gauge, session/dedup stats, and the served store's own gauges;
* ``GET /healthz`` — a small JSON liveness document (status, store kind,
  in-flight count);
* ``GET /statz``   — the raw :meth:`StoreServer.stats_snapshot` JSON that
  ``repro top`` renders.

The protocol support is deliberately minimal: one request per connection,
``HTTP/1.0``-style ``Connection: close`` semantics, GET only.  That is
all a scraper, ``curl``, or ``repro top`` needs, and it keeps the surface
dependency-free.

:func:`http_get` is the matching client (used by ``repro top`` and the
tests), and :func:`render_top` turns a ``/statz`` document into the
hot-methods text view.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.net.errors import ConnectError, ConnectionLostError, ProtocolError
from repro.net.server import StoreServer
from repro.net.wire import split_address
from repro.runtime.stats import percentile

#: largest request head we will read before giving up on a client
MAX_REQUEST_BYTES = 8192


class TelemetryServer:
    """Serve ``/metrics``, ``/healthz``, and ``/statz`` for a store server.

    ``port=0`` binds an ephemeral port; read :attr:`address` after
    construction.  :meth:`start` serves from a daemon thread — the
    endpoint must keep answering while the store server is under RPC
    load, which it does trivially because every scrape builds its
    snapshot under the same lock discipline as a dispatch.
    """

    def __init__(
        self,
        server: StoreServer,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server
        self._lock = threading.Lock()
        self._conns: List[socket.socket] = []
        self._closed = False
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(16)

    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound (resolves ``port=0``)."""
        return self._sock.getsockname()[:2]

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "TelemetryServer":
        """Accept connections from a daemon thread; returns self."""
        threading.Thread(
            target=self.serve_forever, name="repro-telemetry", daemon=True
        ).start()
        return self

    def serve_forever(self) -> None:
        """Accept-and-answer loop; returns when :meth:`close` is called."""
        while True:
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listening socket closed by close()
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._conns.append(conn)
            threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            ).start()

    def close(self) -> None:
        """Stop accepting and release the port."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns, self._conns = self._conns, []
        self._sock.close()
        for conn in conns:
            conn.close()

    # -- request handling --------------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            path = _read_request_path(conn)
            if path is None:
                _respond(conn, 400, "text/plain", "bad request\n")
            else:
                self._route(conn, path)
        except OSError:
            pass  # peer went away mid-response; nothing to salvage
        finally:
            conn.close()
            with self._lock:
                if conn in self._conns:
                    self._conns.remove(conn)

    def _route(self, conn: socket.socket, path: str) -> None:
        if path == "/metrics":
            body = self.server.collect_registry().dump("prom")
            _respond(conn, 200, "text/plain; version=0.0.4", body)
        elif path == "/healthz":
            snap = self.server.stats_snapshot()
            body = json.dumps(
                {
                    "status": "ok",
                    "kind": self.server.store.kind,
                    "inflight": snap["inflight"],
                    "sessions": snap["sessions"],
                },
                sort_keys=True,
            )
            _respond(conn, 200, "application/json", body + "\n")
        elif path == "/statz":
            body = json.dumps(self.server.stats_snapshot(), sort_keys=True)
            _respond(conn, 200, "application/json", body + "\n")
        else:
            _respond(conn, 404, "text/plain", f"no such path {path}\n")


def _read_request_path(conn: socket.socket) -> Optional[str]:
    """Read one HTTP request head and return its GET path (None = bad)."""
    data = b""
    while b"\r\n\r\n" not in data and b"\n\n" not in data:
        if len(data) > MAX_REQUEST_BYTES:
            return None
        chunk = conn.recv(4096)
        if not chunk:
            return None
        data += chunk
    request_line = data.split(b"\r\n", 1)[0].split(b"\n", 1)[0]
    parts = request_line.decode("latin-1").split()
    if len(parts) < 2 or parts[0] != "GET":
        return None
    return parts[1].split("?", 1)[0]


def _respond(
    conn: socket.socket, status: int, content_type: str, body: str
) -> None:
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "OK")
    payload = body.encode("utf-8")
    head = (
        f"HTTP/1.0 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    conn.sendall(head.encode("ascii") + payload)


# -- the matching client -----------------------------------------------------


def http_get(addr: str, path: str, timeout: float = 5.0) -> Tuple[int, str]:
    """Fetch ``path`` from a telemetry endpoint; returns ``(status, body)``.

    ``addr`` is ``host:port``.  Transport failures raise the usual
    :mod:`repro.net` taxonomy (:class:`ConnectError` on dial,
    :class:`ConnectionLostError` mid-stream); a response that is not HTTP
    raises :class:`ProtocolError`.
    """
    host, port = split_address(addr)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectError(f"cannot connect to {addr}: {exc}") from None
    try:
        try:
            request = f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n"
            sock.sendall(request.encode("ascii"))
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        except (TimeoutError, socket.timeout):
            raise ConnectionLostError(f"{addr}{path}: response timed out") from None
        except OSError as exc:
            raise ConnectionLostError(f"{addr}{path}: {exc}") from None
    finally:
        sock.close()
    head, sep, body = data.partition(b"\r\n\r\n")
    if not sep:
        head, sep, body = data.partition(b"\n\n")
    status_line = head.split(b"\r\n", 1)[0].split(b"\n", 1)[0]
    parts = status_line.decode("latin-1", "replace").split()
    if len(parts) < 2 or not parts[0].startswith("HTTP/"):
        raise ProtocolError(f"{addr}{path}: not an HTTP response")
    try:
        status = int(parts[1])
    except ValueError:
        raise ProtocolError(f"{addr}{path}: bad status {parts[1]!r}") from None
    return status, body.decode("utf-8", "replace")


# -- 'repro top' rendering ---------------------------------------------------


def render_top(stats: Dict[str, Any], limit: int = 10) -> str:
    """The hot-methods text view of one ``/statz`` snapshot.

    Methods are ranked by request count; latency columns come from the
    server's capped per-op reservoir, so they describe recent behaviour
    rather than an exact lifetime distribution.
    """
    requests: Dict[str, int] = stats.get("requests", {})
    errors: Dict[str, int] = stats.get("errors", {})
    latencies: Dict[str, List[float]] = stats.get("latencies_s", {})
    total = sum(requests.values())
    lines = [
        f"inflight={stats.get('inflight', 0)} sessions={stats.get('sessions', 0)} "
        f"dedup_replays={stats.get('dedup_replays', 0)} requests={total}",
        f"{'op':<18}{'reqs':>8}{'errs':>7}{'share':>8}"
        f"{'p50 ms':>9}{'p95 ms':>9}{'max ms':>9}",
    ]
    ranked = sorted(requests.items(), key=lambda kv: (-kv[1], kv[0]))[:limit]
    for op, count in ranked:
        ordered = sorted(latencies.get(op, [])) or [0.0]
        p50, p95 = (percentile(ordered, q) * 1e3 for q in (0.50, 0.95))
        share = count / total if total else 0.0
        lines.append(
            f"{op:<18}{count:>8}{errors.get(op, 0):>7}{share:>7.1%}"
            f"{p50:>9.2f}{p95:>9.2f}{ordered[-1] * 1e3:>9.2f}"
        )
    leftover = len(requests) - len(ranked)
    if leftover > 0:
        lines.append(f"... {leftover} more op(s) not shown")
    return "\n".join(lines)

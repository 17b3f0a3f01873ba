"""The request/response RPC core: deadlines, retries, fetch-ahead.

One :class:`RpcClient` talks to one server over one TCP connection (a
second only while a window holds the first), from one thread.  :meth:`RpcClient.call` is a window of one request;
:meth:`RpcClient.call_window` keeps a bounded window of read requests in
flight, which the server answers in order.  Both run the same request
loop, so the discipline — what distributed engines get right long before
they get fast — is the same on both:

* **Per-call deadlines.**  Every attempt gets a wall budget; socket
  timeouts are derived from the remaining budget, and an expired budget
  raises :class:`~repro.net.errors.DeadlineExceeded` (a transport fault).
* **Bounded retries with jittered exponential backoff.**  Only transport
  faults retry; application and protocol faults never do.  Backoff delay
  doubles per attempt up to a cap, with symmetric multiplicative jitter
  drawn from an **injectable seeded RNG** — determinism (repro-lint
  RL001) forbids the process-global ``random`` state, and tests inject a
  fake clock/sleep to assert the schedule exactly.
* **Duplicate-tolerant matching.**  Requests carry a client-unique id;
  responses echo it.  The receive loop discards frames whose id does not
  match an outstanding request, so duplicated or delayed responses from
  an earlier attempt can never be mistaken for the current one.
* **Exactly-once writes.**  Non-idempotent requests carry a ``(session,
  seq)`` pair the server deduplicates on (see
  :class:`~repro.net.server.StoreServer`), making a retried write safe
  even when the first attempt *did* apply and only its response was lost.

A client has no locks: like the engine it serves (one thread per engine,
one writer per store), it is used from one thread.  It is fork-aware: a
connection taken after the process id changed is dropped and redialed,
so a forked worker never shares a socket with its parent.
"""

from __future__ import annotations

import os
import random
import socket
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.net.errors import (
    ConnectError,
    ConnectionLostError,
    DeadlineExceeded,
    ProtocolError,
    RetriesExhausted,
    TransportError,
    raise_application_error,
)
from repro.net.frames import MessageType, encode_frame, read_frame
from repro.net.wire import decode_message, encode_message, encode_trace_context
from repro.telemetry import Telemetry, ensure

#: default per-attempt deadline (seconds)
DEFAULT_DEADLINE = 5.0

#: requests :meth:`RpcClient.call_window` keeps in flight on one connection
FETCH_AHEAD = 4

#: ceiling on buffered RPC latency samples (bridged into a histogram)
LATENCY_SAMPLE_CAP = 4096


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with capped, jittered exponential backoff."""

    max_attempts: int = 3
    base_delay: float = 0.02
    multiplier: float = 2.0
    max_delay: float = 0.5
    #: symmetric multiplicative jitter fraction (0 disables jitter)
    jitter: float = 0.5

    def backoff(self, attempt: int, rng: random.Random) -> float:
        """Delay before retry number ``attempt`` (0-based), jittered."""
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter:
            raw *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(raw, 0.0)


@dataclass
class NetLog:
    """Wire-level accounting for one RPC client.

    ``rpcs`` counts request frames actually sent (so a retried call counts
    each attempt); ``latencies_s`` keeps up to :data:`LATENCY_SAMPLE_CAP`
    per-call round-trip times for the ``repro_net_rpc_seconds`` histogram.
    """

    rpcs: int = 0
    retries: int = 0
    deadline_hits: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    per_op: Dict[str, int] = field(default_factory=dict)
    latencies_s: List[float] = field(default_factory=list)

    def observe_latency(self, seconds: float) -> None:
        if len(self.latencies_s) < LATENCY_SAMPLE_CAP:
            self.latencies_s.append(seconds)


class _Connection:
    """One framed TCP connection (send/receive whole frames)."""

    def __init__(self, sock: socket.socket) -> None:
        self.sock = sock

    def send(self, frame: bytes) -> None:
        try:
            self.sock.sendall(frame)
        except (TimeoutError, socket.timeout):
            raise DeadlineExceeded("send timed out") from None
        except OSError as exc:
            raise ConnectionLostError(f"send failed: {exc}") from None

    def recv_frame(self, timeout: Optional[float]) -> Tuple[MessageType, int, bytes]:
        try:
            self.sock.settimeout(timeout)
            return read_frame(self.sock.recv)
        except (TimeoutError, socket.timeout):
            raise DeadlineExceeded("no response before the deadline") from None
        except TransportError:
            raise
        except OSError as exc:
            raise ConnectionLostError(f"receive failed: {exc}") from None

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass


class RpcClient:
    """Deadline- and retry-disciplined RPC caller; one thread per client.

    Nothing is locked: a client belongs to the thread that made it (a
    forked worker redials instead of sharing the parent's socket).  One
    idle connection is kept between calls; a call made while a
    :meth:`call_window` holds it dials its own, closed again on return.

    ``clock``/``sleep``/``rng`` are injectable for deterministic tests;
    production uses the monotonic clock, real sleep, and a seeded
    :class:`random.Random` (never the process-global RNG).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        deadline: float = DEFAULT_DEADLINE,
        retry: Optional[RetryPolicy] = None,
        clock=time.monotonic,
        sleep=time.sleep,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.deadline = deadline
        self.retry = retry if retry is not None else RetryPolicy()
        self.log = NetLog()
        self.telemetry = ensure(telemetry)
        self._log_base = NetLog()
        self._latency_base = 0
        self._clock = clock
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random(0x7E55E7AC)
        self._idle: Optional[_Connection] = None
        self._next_id = 0
        self._pid = os.getpid()
        self._closed = False

    # -- the connection ----------------------------------------------------

    def _leave_parent(self) -> None:
        """In a forked child, let go of what belongs to the parent process.

        Its socket must not be shared, and its wire history is the
        parent's to report: without advancing the baseline, the child's
        first :meth:`take_log_delta` would re-ship every RPC the parent
        made before the fork.
        """
        if os.getpid() == self._pid:
            return
        self._idle = None
        self._pid = os.getpid()
        self.take_log_delta()  # discarded: it is the inherited history

    def _checkout(self) -> _Connection:
        """The idle connection, or a fresh dial when there is none."""
        self._leave_parent()
        conn, self._idle = self._idle, None
        if conn is not None:
            return conn
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=max(self.deadline, 1e-3)
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ConnectError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from None
        return _Connection(sock)

    def close(self) -> None:
        self._closed = True
        conn, self._idle = self._idle, None
        if conn is not None:
            conn.close()

    # -- accounting --------------------------------------------------------

    def take_log_delta(self) -> NetLog:
        """Wire-level activity since the last take, as a fresh :class:`NetLog`.

        The baseline advances with the read, so consecutive takes
        partition the client's activity: every RPC is reported exactly
        once across all deltas.  This is how process workers ship their
        reconnected clients' wire counts back without double-counting (see
        :func:`repro.telemetry.bridge.net_delta_to_registry`).
        """
        self._leave_parent()
        log, base = self.log, self._log_base
        delta = NetLog(
            rpcs=log.rpcs - base.rpcs,
            retries=log.retries - base.retries,
            deadline_hits=log.deadline_hits - base.deadline_hits,
            bytes_sent=log.bytes_sent - base.bytes_sent,
            bytes_received=log.bytes_received - base.bytes_received,
            per_op={
                op: count - base.per_op.get(op, 0)
                for op, count in log.per_op.items()
                if count - base.per_op.get(op, 0)
            },
            latencies_s=log.latencies_s[self._latency_base :],
        )
        self._log_base = replace(log, per_op=dict(log.per_op), latencies_s=[])
        self._latency_base = len(log.latencies_s)
        return delta

    # -- spans -------------------------------------------------------------
    #
    # The rpc.call span is recorded manually rather than via ``with
    # tracer.span(...)``: the span id must cross the wire before the span
    # completes, and the manual path costs two short tracer-lock
    # acquisitions per call instead of a Span allocation plus stack
    # traffic (see Tracer.open_wire_span / record_completed) — the
    # difference is most of the tracing-enabled overhead the
    # net_trace_overhead benchmark guards.  The span helpers run only when
    # the caller read ``tracer.enabled``.

    def _open_span(self) -> Tuple[int, Optional[int], float]:
        """``(span_id, parent_id, start)`` of one ``rpc.call`` span."""
        tracer = self.telemetry.tracer
        span_id, parent_id = tracer.open_wire_span()
        return span_id, parent_id, tracer.now()

    def _trace(self, span, attempt: int = 0) -> List[Any]:
        """The wire trace context of ``span``'s attempt."""
        tracer = self.telemetry.tracer
        return encode_trace_context(
            tracer.trace_id, span[0], tracer.node or "", attempt=attempt
        )

    def _close_span(
        self, span, op: str, attempts: int, error: Optional[Exception] = None
    ) -> None:
        tracer = self.telemetry.tracer
        attrs: Dict[str, Any] = {"op": op, "attempts": attempts}
        if error is not None:
            attrs["error"] = type(error).__name__
        tracer.record_completed(
            [(span[0], span[1], "rpc.call", span[2], tracer.now(), attrs)]
        )

    # -- calls -------------------------------------------------------------

    def call(
        self,
        op: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        session: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> Any:
        """Invoke ``op`` on the server and return its decoded result.

        Transport faults retry per the policy (each attempt with a fresh
        deadline); application and protocol faults propagate immediately.
        ``session``/``seq`` tag a non-idempotent write for server-side
        deduplication, which is what makes its retries exactly-once.  A
        value the payload codec cannot carry raises ``ValueError`` before
        any frame is sent.
        """
        return self._call(op, args, session, seq)

    def _call(
        self,
        op: str,
        args: Optional[Dict[str, Any]],
        session: Optional[int],
        seq: Optional[int],
        fault: Optional[TransportError] = None,
    ) -> Any:
        """The retry loop of :meth:`call`: each attempt is a window of one.
        A ``fault`` means attempt 0 already failed with it (in a window),
        so the loop starts at the first retry and the policy's
        ``max_attempts`` covers both."""
        attempts = max(1, self.retry.max_attempts)
        last = fault
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        span = self._open_span() if traced else None
        trace = self._trace(span) if traced else None
        for attempt in range(0 if fault is None else 1, attempts):
            if attempt:
                self.log.retries += 1
                delay = self.retry.backoff(attempt - 1, self._rng)
                if traced:
                    backoff_start = tracer.now()
                    self._sleep(delay)
                    tracer.record(
                        "rpc.retry",
                        backoff_start,
                        tracer.now(),
                        parent_id=span[0],
                        op=op,
                        attempt=attempt,
                        backoff_s=delay,
                    )
                    trace = self._trace(span, attempt)
                else:
                    self._sleep(delay)
            try:
                (result,) = self._exchange(op, deque([args]), session, seq, trace)
            except DeadlineExceeded as exc:
                self.log.deadline_hits += 1
                last = exc
            except TransportError as exc:
                last = exc
            else:
                if traced:
                    self._close_span(span, op, attempt + 1)
                return result
        assert last is not None
        if traced:
            self._close_span(span, op, attempts, last)
        raise RetriesExhausted(attempts, last)

    def call_window(self, op: str, arg_list: List[Dict[str, Any]]) -> Iterator[Any]:
        """``call(op, args)`` for each of ``arg_list``, yielded in order.

        Up to :data:`FETCH_AHEAD` requests ride one connection, and the
        next goes out as each reply lands: the server encodes reply i+1
        while the caller consumes reply i.  A transport fault closes the
        connection; each request not yet answered counts that as its
        first attempt and goes on through :meth:`call`'s retry loop — so
        ``op`` must be a read, whose resend is safe.  At most
        :data:`FETCH_AHEAD` requests are ever unread.
        """
        pending: Deque[Optional[Dict[str, Any]]] = deque(arg_list)
        try:
            yield from self._exchange(op, pending)
        except TransportError as exc:
            if isinstance(exc, DeadlineExceeded):
                self.log.deadline_hits += 1
            for args in pending:
                yield self._call(op, args, None, None, exc)

    def _exchange(
        self,
        op: str,
        pending: Deque[Optional[Dict[str, Any]]],
        session: Optional[int] = None,
        seq: Optional[int] = None,
        trace: Optional[List[Any]] = None,
    ) -> Iterator[Any]:
        """The one request loop: the only place frames are sent and read.

        Up to :data:`FETCH_AHEAD` requests ride one connection; replies
        are matched by id (a stale duplicate is discarded), and each
        answered request is popped off ``pending`` as its result is
        yielded, so a transport fault leaves the unanswered ones.  Each
        request waits at most :attr:`deadline` from its send.  The
        connection returns to the idle slot only with nothing in flight
        — so an ERROR reply to a lone request keeps it.  ``session``/
        ``seq``/``trace`` tag a :meth:`call` attempt; without ``trace``,
        a traced client opens an ``rpc.call`` span per request here.
        """
        if not pending:
            return
        spans = trace is None and self.telemetry.tracer.enabled
        log = self.log
        conn = self._checkout()
        sent: Deque[Tuple[int, float, Any]] = deque()  # (id, start, span)
        landed: Dict[int, Tuple[MessageType, Dict[str, Any]]] = {}
        keep = True  # nothing in flight on conn, and it has not misbehaved
        try:
            while pending:
                while len(sent) < min(FETCH_AHEAD, len(pending)):
                    span = self._open_span() if spans else None
                    self._next_id += 1
                    req_id = self._next_id
                    message: Dict[str, Any] = {
                        "id": req_id,
                        "op": op,
                        "args": pending[len(sent)] or {},
                    }
                    if seq is not None:
                        message["session"] = session
                        message["seq"] = seq
                    context = self._trace(span) if spans else trace
                    if context is not None:
                        message["trace"] = context
                    payload, flags = encode_message(message)
                    frame = encode_frame(MessageType.REQUEST, payload, flags=flags)
                    sent.append((req_id, self._clock(), span))
                    keep = False
                    log.rpcs += 1
                    log.per_op[op] = log.per_op.get(op, 0) + 1
                    conn.send(frame)
                    log.bytes_sent += len(frame)
                req_id, start, span = sent[0]
                while req_id not in landed:
                    remaining = start + self.deadline - self._clock()
                    if remaining <= 0:
                        raise DeadlineExceeded(
                            f"{op}: deadline of {self.deadline}s expired"
                        )
                    msg_type, flags, payload = conn.recv_frame(remaining)
                    log.bytes_received += len(payload)
                    reply = decode_message(payload, flags)
                    if any(reply.get("id") == other for other, _, _ in sent):
                        landed[reply["id"]] = (msg_type, reply)
                sent.popleft()
                pending.popleft()
                msg_type, reply = landed.pop(req_id)
                keep = not sent and msg_type is not MessageType.REQUEST
                result = self._result(msg_type, reply)
                log.observe_latency(self._clock() - start)
                if spans:
                    self._close_span(span, op, 1)
                yield result
        except TransportError as exc:
            if spans:
                for _, _, span in sent:
                    self._close_span(span, op, 1, exc)
            raise
        finally:
            if keep and self._idle is None and not self._closed:
                self._idle = conn
            else:
                conn.close()

    @staticmethod
    def _result(msg_type: MessageType, reply: Dict[str, Any]) -> Any:
        """A reply's result; an ERROR reply raises its mapped exception."""
        if msg_type is MessageType.ERROR:
            error = reply.get("error") or {}
            raise_application_error(
                str(error.get("type", "ApplicationError")),
                str(error.get("message", "")),
            )
        if msg_type is not MessageType.RESPONSE:
            raise ProtocolError(f"unexpected {msg_type.name} frame from server")
        return reply.get("result")

"""The request/response RPC core: deadlines, retries, pooling, pipelining.

One :class:`RpcClient` owns a small pool of TCP connections to one server
and exposes two entry points: the blocking :meth:`RpcClient.call` (one
request per pooled connection at a time) and the pipelined
:meth:`RpcClient.submit`, which sends immediately on a dedicated
**channel** and returns an :class:`RpcFuture`.  The channel keeps a
bounded window of in-flight requests; a reader thread dispatches
responses by message id, so they may complete **out of order** while the
discipline — what distributed engines get right long before they get
fast — stays identical across both paths:

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
  an earlier attempt can never be mistaken for the current one.  On the
  pipelined path the same rule covers **abandoned** attempts: a future
  whose deadline expires removes its pending entry before retrying, so a
  late response to the dead attempt is discarded by id instead of
  completing the retry.
* **Exactly-once writes.**  Non-idempotent requests carry a ``(session,
  seq)`` pair the server deduplicates on (see
  :class:`~repro.net.server.StoreServer`), making a retried write safe
  even when the first attempt *did* apply and only its response was lost.

The pool is fork-aware: a connection checked out after the process id
changed is discarded and redialed, so a forked worker never shares a
socket with its parent.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.net.errors import (
    ApplicationError,
    ConnectError,
    ConnectionLostError,
    DeadlineExceeded,
    ProtocolError,
    RetriesExhausted,
    TransportError,
    raise_application_error,
)
from repro.net.frames import (
    FLAG_BINARY,
    MAX_PAYLOAD,
    MessageType,
    encode_frame,
    read_frame,
)
from repro.net.wire import (
    decode_binary_payload,
    decode_payload,
    encode_payload,
    encode_trace_context,
)
from repro.telemetry import Telemetry, ensure

#: default per-attempt deadline (seconds)
DEFAULT_DEADLINE = 5.0

#: default bound on in-flight pipelined requests per channel
DEFAULT_WINDOW = 32

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

    def merge(self, other: "NetLog") -> None:
        """Fold another log's counts into this one (commutative on counts).

        Latency samples are appended up to the shared reservoir cap, so a
        merged log obeys the same bound as a live one.
        """
        self.rpcs += other.rpcs
        self.retries += other.retries
        self.deadline_hits += other.deadline_hits
        self.bytes_sent += other.bytes_sent
        self.bytes_received += other.bytes_received
        for op, count in other.per_op.items():
            self.per_op[op] = self.per_op.get(op, 0) + count
        room = LATENCY_SAMPLE_CAP - len(self.latencies_s)
        if room > 0:
            self.latencies_s.extend(other.latencies_s[:room])


class _Connection:
    """One framed TCP connection (send/receive whole frames)."""

    def __init__(self, sock: socket.socket, max_payload: int) -> None:
        self.sock = sock
        self.max_payload = max_payload

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
            return read_frame(self.sock.recv, max_payload=self.max_payload)
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


class _Slot:
    """One in-flight pipelined attempt, completed by the channel reader."""

    __slots__ = ("event", "msg_type", "message", "error", "start")

    def __init__(self, start: float) -> None:
        self.event = threading.Event()
        self.msg_type: Optional[MessageType] = None
        self.message: Optional[Dict[str, Any]] = None
        self.error: Optional[Exception] = None
        self.start = start


class _Channel:
    """One pipelined connection: interleaved sends, id-keyed completion.

    Sends from any thread are serialized by a send lock; a daemon reader
    thread decodes each response frame and completes the matching pending
    slot, in whatever order the server answered.  A bounded semaphore
    caps the in-flight window — :meth:`send` blocks (up to the attempt
    budget) when the window is full, which is the backpressure that keeps
    a fetch-ahead client from buffering the world.  Any transport or
    protocol fault kills the channel and fails every pending slot; the
    owning client dials a fresh channel on the next submit.
    """

    def __init__(self, client: "RpcClient", window: int) -> None:
        self._client = client
        self._max_payload = client.max_payload
        try:
            sock = socket.create_connection(
                (client.host, client.port), timeout=max(client.deadline, 1e-3)
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(None)
        except OSError as exc:
            raise ConnectError(
                f"cannot connect to {client.host}:{client.port}: {exc}"
            ) from None
        self._sock = sock
        self._send_lock = threading.Lock()
        self._lock = threading.Lock()
        self._pending: Dict[int, _Slot] = {}
        self._window = threading.BoundedSemaphore(window)
        self.dead = False
        self._dead_error: Optional[TransportError] = None
        self._reader = threading.Thread(
            target=self._read_loop, name="repro-rpc-reader", daemon=True
        )
        self._reader.start()

    def send(self, req_id: int, frame: bytes, slot: _Slot, budget: float) -> None:
        """Register ``slot`` and write one request frame (window-bounded)."""
        if not self._window.acquire(timeout=max(budget, 1e-3)):
            raise DeadlineExceeded("pipeline window still full at the deadline")
        with self._lock:
            if self.dead:
                self._window.release()
                raise self._dead_error or ConnectionLostError("channel closed")
            self._pending[req_id] = slot
        try:
            with self._send_lock:
                self._sock.sendall(frame)
        except (TimeoutError, socket.timeout):
            self.abandon(req_id)
            raise DeadlineExceeded("send timed out") from None
        except OSError as exc:
            self.abandon(req_id)
            raise ConnectionLostError(f"send failed: {exc}") from None

    def abandon(self, req_id: int) -> bool:
        """Forget an in-flight attempt; its late response will be discarded.

        Returns False when the reader already completed (or failed) the
        slot — the caller should consume that outcome instead.
        """
        with self._lock:
            slot = self._pending.pop(req_id, None)
        if slot is None:
            return False
        self._window.release()
        return True

    def _read_loop(self) -> None:
        try:
            while True:
                try:
                    msg_type, flags, payload = read_frame(
                        self._sock.recv, max_payload=self._max_payload
                    )
                except OSError as exc:
                    raise ConnectionLostError(f"receive failed: {exc}") from None
                message = (
                    decode_binary_payload(payload)
                    if flags & FLAG_BINARY
                    else decode_payload(payload)
                )
                with self._lock:
                    slot = self._pending.pop(message.get("id"), None)
                if slot is None:
                    continue  # stale duplicate or abandoned attempt: discard
                with self._client._lock:
                    self._client.log.bytes_received += len(payload)
                slot.msg_type = msg_type
                slot.message = message
                slot.event.set()
                self._window.release()
        except TransportError as exc:
            self._shutdown(exc)
        except ProtocolError as exc:
            self._shutdown(exc)

    def _shutdown(self, error: TransportError) -> None:
        with self._lock:
            already = self.dead
            self.dead = True
            if self._dead_error is None:
                self._dead_error = error
            pending, self._pending = self._pending, {}
        for slot in pending.values():
            slot.error = error
            slot.event.set()
            self._window.release()
        if not already:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        self._shutdown(ConnectionLostError("client closed"))


class RpcFuture:
    """Handle for one pipelined RPC; the send already happened at submit.

    :meth:`result` blocks until the response arrives (or the attempt
    deadline passes) and drives the same retry/backoff schedule as the
    blocking call path — including abandoning timed-out attempts so
    their late responses can never complete a retried request, and
    recording one ``rpc.call`` span covering every attempt.
    """

    def __init__(
        self,
        client: "RpcClient",
        op: str,
        args: Optional[Dict[str, Any]],
        budget: float,
        session: Optional[int],
        seq: Optional[int],
        binary: bool,
        encoder,
        flags: int,
    ) -> None:
        self._client = client
        self.op = op
        self._args = args
        self._budget = budget
        self._session = session
        self._seq = seq
        self._binary = binary
        self._encoder = encoder
        self._flags = flags
        self._slot: Optional[_Slot] = None
        self._channel: Optional[_Channel] = None
        self._req_id = 0
        self._send_error: Optional[TransportError] = None
        tracer = client.telemetry.tracer
        self._traced = tracer.enabled
        self._span_id = 0
        self._parent_id: Optional[int] = None
        self._trace: Optional[List[Any]] = None
        self._call_start = 0.0
        if self._traced:
            self._span_id, self._parent_id = tracer.open_wire_span()
            self._trace = encode_trace_context(
                tracer.trace_id, self._span_id, tracer.node or ""
            )
            self._call_start = tracer.now()

    # -- one attempt -------------------------------------------------------

    def _start(self) -> None:
        """Send one attempt; transport faults are stashed for result()."""
        client = self._client
        self._send_error = None
        self._slot = None
        try:
            channel = client._pipe_channel()
            with client._lock:
                client._next_id += 1
                req_id = self._req_id = client._next_id
                client.log.rpcs += 1
                client.log.per_op[self.op] = client.log.per_op.get(self.op, 0) + 1
            message: Dict[str, Any] = {
                "id": req_id,
                "op": self.op,
                "args": self._args or {},
            }
            if self._seq is not None:
                message["session"] = self._session
                message["seq"] = self._seq
            if self._binary:
                # absent-field compatibility: old servers ignore "accept"
                message["accept"] = "b"
            if self._trace is not None:
                message["trace"] = self._trace
            if self._encoder is not None:
                payload, payload_flags = self._encoder(message)
            else:
                payload, payload_flags = encode_payload(message), 0
            frame = encode_frame(
                MessageType.REQUEST, payload, flags=payload_flags | self._flags
            )
            slot = _Slot(client._clock())
            channel.send(req_id, frame, slot, self._budget)
            with client._lock:
                client.log.bytes_sent += len(frame)
            self._channel = channel
            self._slot = slot
        except TransportError as exc:
            self._send_error = exc

    def _wait(self) -> Any:
        """Outcome of the current attempt (respecting its deadline)."""
        if self._send_error is not None:
            raise self._send_error
        client = self._client
        slot, channel = self._slot, self._channel
        assert slot is not None and channel is not None
        deadline_at = slot.start + self._budget
        remaining = deadline_at - client._clock()
        if remaining <= 0 or not slot.event.wait(remaining):
            if channel.abandon(self._req_id):
                raise DeadlineExceeded(
                    f"{self.op}: deadline of {self._budget}s expired"
                )
            slot.event.wait()  # completion raced the timeout; it is imminent
        if slot.error is not None:
            raise slot.error
        msg_type, message = slot.msg_type, slot.message
        assert msg_type is not None and message is not None
        if msg_type is MessageType.ERROR:
            error = message.get("error") or {}
            raise_application_error(
                str(error.get("type", "ApplicationError")),
                str(error.get("message", "")),
            )
        if msg_type is MessageType.RESPONSE:
            with client._lock:
                client.log.observe_latency(client._clock() - slot.start)
            return message.get("result")
        raise ProtocolError(f"unexpected {msg_type.name} frame from server")

    # -- completion --------------------------------------------------------

    def result(self) -> Any:
        """Wait for the response; retries transport faults like call()."""
        client = self._client
        tracer = client.telemetry.tracer
        attempts = max(1, client.retry.max_attempts)
        last: Optional[TransportError] = None
        for attempt in range(attempts):
            if attempt:
                with client._lock:
                    client.log.retries += 1
                delay = client.retry.backoff(attempt - 1, client._rng)
                if self._traced:
                    backoff_start = tracer.now()
                    client._sleep(delay)
                    tracer.record(
                        "rpc.retry",
                        backoff_start,
                        tracer.now(),
                        parent_id=self._span_id,
                        op=self.op,
                        attempt=attempt,
                        backoff_s=delay,
                    )
                    self._trace = encode_trace_context(
                        tracer.trace_id,
                        self._span_id,
                        tracer.node or "",
                        attempt=attempt,
                    )
                else:
                    client._sleep(delay)
                self._start()
            try:
                value = self._wait()
            except DeadlineExceeded as exc:
                with client._lock:
                    client.log.deadline_hits += 1
                last = exc
                continue
            except TransportError as exc:
                last = exc
                continue
            if self._traced:
                tracer.record_completed(
                    [
                        (
                            self._span_id,
                            self._parent_id,
                            "rpc.call",
                            self._call_start,
                            tracer.now(),
                            {"op": self.op, "attempts": attempt + 1},
                        )
                    ]
                )
            return value
        assert last is not None
        if self._traced:
            tracer.record_completed(
                [
                    (
                        self._span_id,
                        self._parent_id,
                        "rpc.call",
                        self._call_start,
                        tracer.now(),
                        {
                            "op": self.op,
                            "attempts": attempts,
                            "error": type(last).__name__,
                        },
                    )
                ]
            )
        raise RetriesExhausted(attempts, last)


class RpcClient:
    """Pooled, deadline- and retry-disciplined RPC caller.

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
        pool_size: int = 2,
        window: int = DEFAULT_WINDOW,
        max_payload: int = MAX_PAYLOAD,
        clock=time.monotonic,
        sleep=time.sleep,
        rng: Optional[random.Random] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be positive")
        if window < 1:
            raise ValueError("window must be positive")
        self.host = host
        self.port = port
        self.deadline = deadline
        self.retry = retry if retry is not None else RetryPolicy()
        self.pool_size = pool_size
        self.window = window
        self.max_payload = max_payload
        self.log = NetLog()
        self.telemetry = ensure(telemetry)
        self._log_base = NetLog()
        self._latency_base = 0
        self._clock = clock
        self._sleep = sleep
        self._rng = rng if rng is not None else random.Random(0x7E55E7AC)
        self._lock = threading.Lock()
        self._idle: List[_Connection] = []
        self._pipe: Optional[_Channel] = None
        self._next_id = 0
        self._pid = os.getpid()
        self._closed = False

    # -- pool --------------------------------------------------------------

    def _leave_parent(self) -> None:
        """In a forked child, let go of what belongs to the parent process.

        Its sockets must not be shared, and its wire history is the
        parent's to report: without advancing the baseline, the child's
        first :meth:`take_log_delta` would re-ship every RPC the parent
        made before the fork.
        """
        if os.getpid() == self._pid:  # unlocked read: only a fork changes it
            return
        with self._lock:
            self._idle.clear()
            self._pipe = None
            self._pid = os.getpid()
        self.take_log_delta()  # discarded: it is the inherited history

    def _checkout(self, timeout: float) -> _Connection:
        self._leave_parent()
        with self._lock:
            if self._idle:
                return self._idle.pop()
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=max(timeout, 1e-3)
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError as exc:
            raise ConnectError(
                f"cannot connect to {self.host}:{self.port}: {exc}"
            ) from None
        return _Connection(sock, self.max_payload)

    def _checkin(self, conn: _Connection) -> None:
        with self._lock:
            if not self._closed and len(self._idle) < self.pool_size:
                self._idle.append(conn)
                return
        conn.close()

    def _pipe_channel(self) -> _Channel:
        """The live pipelined channel, dialing a fresh one when needed."""
        self._leave_parent()
        with self._lock:
            channel = self._pipe
            if channel is not None and not channel.dead:
                return channel
        channel = _Channel(self, self.window)  # dial outside the lock
        with self._lock:
            if self._closed:
                channel.close()
                raise ConnectionLostError("client closed")
            if self._pipe is not None and not self._pipe.dead:
                extra, channel = channel, self._pipe  # lost a dial race
            else:
                extra, self._pipe = self._pipe, channel
        if extra is not None:
            extra.close()
        return channel

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
            pipe, self._pipe = self._pipe, None
        for conn in idle:
            conn.close()
        if pipe is not None:
            pipe.close()

    # -- accounting --------------------------------------------------------

    def take_log_delta(self) -> NetLog:
        """Wire-level activity since the last take, as a fresh :class:`NetLog`.

        The baseline advances atomically with the read (one lock covers
        both), so consecutive takes partition the client's activity: every
        RPC is reported exactly once across all deltas.  This is how
        process workers ship their reconnected clients' wire counts back
        without double-counting (see
        :func:`repro.telemetry.bridge.net_delta_to_registry`).
        """
        self._leave_parent()
        with self._lock:
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

    # -- the call path -----------------------------------------------------

    def call(
        self,
        op: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        deadline: Optional[float] = None,
        session: Optional[int] = None,
        seq: Optional[int] = None,
        binary: bool = False,
        encoder=None,
    ) -> Any:
        """Invoke ``op`` on the server and return its decoded result.

        Transport faults retry per the policy (each attempt with a fresh
        deadline); application and protocol faults propagate immediately.
        ``session``/``seq`` tag a non-idempotent write for server-side
        deduplication, which is what makes its retries exactly-once.
        ``binary=True`` marks the request as accepting binary-codec
        replies (only meaningful once the server advertised ``"bin"``);
        ``encoder`` overrides the request payload encoding — it takes the
        complete message dict and returns ``(payload_bytes, frame_flags)``.
        """
        budget = self.deadline if deadline is None else deadline
        attempts = max(1, self.retry.max_attempts)
        last: Optional[TransportError] = None
        # The rpc.call span is recorded manually rather than via
        # ``with tracer.span(...)``: the span id must cross the wire before
        # the span completes, and the manual path costs two short lock
        # acquisitions per call instead of a Span allocation plus stack
        # traffic (see Tracer.open_wire_span / record_completed) — the
        # difference is most of the tracing-enabled overhead the
        # net_trace_overhead benchmark guards.
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        trace = None
        span_id = 0
        parent_id: Optional[int] = None
        call_start = 0.0
        if traced:
            span_id, parent_id = tracer.open_wire_span()
            trace = encode_trace_context(tracer.trace_id, span_id, tracer.node or "")
            call_start = tracer.now()
        for attempt in range(attempts):
            if attempt:
                with self._lock:
                    self.log.retries += 1
                delay = self.retry.backoff(attempt - 1, self._rng)
                if traced:
                    backoff_start = tracer.now()
                    self._sleep(delay)
                    tracer.record(
                        "rpc.retry",
                        backoff_start,
                        tracer.now(),
                        parent_id=span_id,
                        op=op,
                        attempt=attempt,
                        backoff_s=delay,
                    )
                    trace = encode_trace_context(
                        tracer.trace_id, span_id, tracer.node or "", attempt=attempt
                    )
                else:
                    self._sleep(delay)
            try:
                result = self._attempt(
                    op, args, budget, session, seq, trace, binary, encoder
                )
                if traced:
                    tracer.record_completed(
                        [
                            (
                                span_id,
                                parent_id,
                                "rpc.call",
                                call_start,
                                tracer.now(),
                                {"op": op, "attempts": attempt + 1},
                            )
                        ]
                    )
                return result
            except DeadlineExceeded as exc:
                with self._lock:
                    self.log.deadline_hits += 1
                last = exc
            except TransportError as exc:
                last = exc
        assert last is not None
        if traced:
            tracer.record_completed(
                [
                    (
                        span_id,
                        parent_id,
                        "rpc.call",
                        call_start,
                        tracer.now(),
                        {
                            "op": op,
                            "attempts": attempts,
                            "error": type(last).__name__,
                        },
                    )
                ]
            )
        raise RetriesExhausted(attempts, last)

    def submit(
        self,
        op: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        deadline: Optional[float] = None,
        session: Optional[int] = None,
        seq: Optional[int] = None,
        binary: bool = False,
        encoder=None,
        flags: int = 0,
    ) -> RpcFuture:
        """Send ``op`` on the pipelined channel; returns an :class:`RpcFuture`.

        The request frame goes out before this returns (that is the
        pipelining: issue the next request while earlier ones are still
        in flight), bounded by the channel's in-flight ``window``.
        Responses complete out of order, matched by message id.  All
        call-path discipline — per-attempt deadline, retry policy,
        exactly-once ``session``/``seq`` tagging — applies when
        :meth:`RpcFuture.result` is awaited; a send-side transport fault
        is therefore not raised here but surfaced (and retried) there.
        ``flags`` adds frame flag bits (e.g.
        :data:`~repro.net.frames.FLAG_PIPELINE` once the server
        advertised ``"pipe"``); ``binary``/``encoder`` behave as in
        :meth:`call`.
        """
        budget = self.deadline if deadline is None else deadline
        future = RpcFuture(
            self, op, args, budget, session, seq, binary, encoder, flags
        )
        future._start()
        return future

    def _attempt(
        self,
        op: str,
        args: Optional[Dict[str, Any]],
        budget: float,
        session: Optional[int],
        seq: Optional[int],
        trace: Optional[List[Any]] = None,
        binary: bool = False,
        encoder=None,
    ) -> Any:
        start = self._clock()
        deadline_at = start + budget
        conn = self._checkout(budget)
        healthy = False
        try:
            with self._lock:
                self._next_id += 1
                req_id = self._next_id
                self.log.rpcs += 1
                self.log.per_op[op] = self.log.per_op.get(op, 0) + 1
            message: Dict[str, Any] = {"id": req_id, "op": op, "args": args or {}}
            if seq is not None:
                message["session"] = session
                message["seq"] = seq
            if binary:
                # absent-field compatibility: old servers ignore "accept"
                message["accept"] = "b"
            if trace is not None:
                # absent-field compatibility: old servers ignore unknown keys
                message["trace"] = trace
            if encoder is not None:
                payload, payload_flags = encoder(message)
            else:
                payload, payload_flags = encode_payload(message), 0
            frame = encode_frame(MessageType.REQUEST, payload, flags=payload_flags)
            conn.send(frame)
            with self._lock:
                self.log.bytes_sent += len(frame)
            while True:
                remaining = deadline_at - self._clock()
                if remaining <= 0:
                    raise DeadlineExceeded(f"{op}: deadline of {budget}s expired")
                msg_type, reply_flags, payload = conn.recv_frame(remaining)
                with self._lock:
                    self.log.bytes_received += len(payload)
                reply = (
                    decode_binary_payload(payload)
                    if reply_flags & FLAG_BINARY
                    else decode_payload(payload)
                )
                if reply.get("id") != req_id:
                    # stale duplicate from an earlier attempt: discard
                    continue
                if msg_type is MessageType.ERROR:
                    healthy = True  # server survives its own app errors
                    error = reply.get("error") or {}
                    raise_application_error(
                        str(error.get("type", "ApplicationError")),
                        str(error.get("message", "")),
                    )
                if msg_type is MessageType.RESPONSE:
                    healthy = True
                    with self._lock:
                        self.log.observe_latency(self._clock() - start)
                    return reply.get("result")
                raise ProtocolError(f"unexpected {msg_type.name} frame from server")
        finally:
            if healthy:
                self._checkin(conn)
            else:
                conn.close()

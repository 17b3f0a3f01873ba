"""Fault-injection TCP proxy for network-layer tests.

:class:`FaultProxy` sits between a :class:`~repro.net.client.NetStoreClient`
and a :class:`~repro.net.server.StoreServer` and injects faults at **frame
boundaries**: it parses each relayed frame with the real codec, then —
according to deterministic counter-based rules, no RNG — drops it, delays
it, duplicates it, or reorders it.  Frame-boundary faults are the
interesting ones: a dropped frame exercises the client's deadline + retry
machinery, a duplicated request exercises the server's exactly-once write
dedup, a duplicated response exercises the client's request-id discard
loop, and a reordered frame exercises the fetch-ahead window's id
matching (several ``multi_get`` requests in flight on one connection).
On a connection carrying a single request, a held frame waits for a
successor that never comes: to the client it is a deadline and a retry.

Frames in both directions share one counter, so a rule like
``drop_every=7`` kills every 7th frame regardless of direction — requests
and responses both get hit over the course of a run.

Usage::

    server = StoreServer(MultiVersionStore()).start()
    proxy = FaultProxy(server.address, drop_every=7, dup_every=5).start()
    client = NetStoreClient(proxy.address, deadline=0.1, ...)
"""

from __future__ import annotations

import socket
import threading
import time
from typing import List, Tuple

from repro.net.frames import TruncatedFrameError, encode_frame, read_frame


class FaultProxy:
    """A frame-aware relay that drops / delays / duplicates frames.

    ``drop_every=N`` drops every Nth relayed frame; ``dup_every=M`` sends
    every Mth frame twice; ``delay_every=K`` sleeps ``delay_s`` before
    forwarding every Kth frame; ``reorder_every=R`` holds every Rth frame
    back and sends it *after* the next frame travelling the same
    direction (an adjacent swap — held frames are flushed at EOF so
    nothing is silently lost).  Drop/dup/delay counters are global across
    both directions and all connections, so fault schedules are
    reproducible for a serially-issuing client; the reorder counter is
    per direction, since swapping is only meaningful within one stream.

    :attr:`drop_replies` is the one rule a test sets mid-run: the next
    that many server -> client frames are dropped, whatever the counters
    say — "the request lands, its acknowledgement is lost".
    """

    def __init__(
        self,
        upstream: Tuple[str, int],
        *,
        drop_every: int = 0,
        dup_every: int = 0,
        delay_every: int = 0,
        delay_s: float = 0.0,
        reorder_every: int = 0,
    ) -> None:
        self.upstream = upstream
        self.drop_every = drop_every
        self.dup_every = dup_every
        self.delay_every = delay_every
        self.delay_s = delay_s
        self.reorder_every = reorder_every
        self.drop_replies = 0
        self.frames = 0
        self.dropped = 0
        self.duplicated = 0
        self.delayed = 0
        self.reordered = 0
        self._lock = threading.Lock()
        self._conns: List[socket.socket] = []
        self._closed = False
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(16)

    @property
    def address(self) -> Tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> "FaultProxy":
        threading.Thread(
            target=self._accept_loop, name="fault-proxy", daemon=True
        ).start()
        return self

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            conns, self._conns = self._conns, []
        self._sock.close()
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()

    # -- relay machinery ---------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                client, _ = self._sock.accept()
            except OSError:
                return
            try:
                server = socket.create_connection(self.upstream)
            except OSError:
                client.close()
                continue
            # a duplicated or held frame is a second small write in a row:
            # without NODELAY it waits out the peer's delayed ACK (~40 ms)
            for sock in (client, server):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                if self._closed:
                    client.close()
                    server.close()
                    return
                self._conns.extend((client, server))
            for src, dst, reply in ((client, server, False), (server, client, True)):
                threading.Thread(
                    target=self._pump, args=(src, dst, reply), daemon=True
                ).start()

    def _pump(self, src: socket.socket, dst: socket.socket, reply: bool) -> None:
        held: List[bytes] = []  # frame awaiting an adjacent swap
        seen = 0  # per-direction frame count for reorder_every
        try:
            while True:
                try:
                    msg_type, flags, payload = read_frame(src.recv)
                except (TruncatedFrameError, OSError):
                    return
                # re-encode with the original flag bits so binary
                # frames survive the relay byte-identically
                raw = encode_frame(msg_type, payload, flags=flags)
                with self._lock:
                    self.frames += 1
                    n = self.frames
                    lose_reply = reply and self.drop_replies > 0
                    if lose_reply:
                        self.drop_replies -= 1
                if lose_reply or (self.drop_every and n % self.drop_every == 0):
                    with self._lock:
                        self.dropped += 1
                    continue
                if self.delay_every and n % self.delay_every == 0:
                    with self._lock:
                        self.delayed += 1
                    time.sleep(self.delay_s)
                copies = (
                    2 if self.dup_every and n % self.dup_every == 0 else 1
                )
                if copies == 2:
                    with self._lock:
                        self.duplicated += 1
                seen += 1
                if (
                    self.reorder_every
                    and not held
                    and seen % self.reorder_every == 0
                ):
                    held.append(raw)
                    with self._lock:
                        self.reordered += 1
                    continue
                try:
                    for _ in range(copies):
                        dst.sendall(raw)
                    if held:
                        dst.sendall(held.pop())
                except OSError:
                    return
        finally:
            # flush a frame still held for reordering: EOF means no
            # successor is coming, and dropping it here would turn a
            # reorder rule into a surprise drop rule
            if held:
                try:
                    dst.sendall(held.pop())
                except OSError:
                    pass
            # one side died: sever the other so its pump unblocks too
            for sock in (src, dst):
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
                sock.close()

    def fault_counts(self) -> Tuple[int, int, int]:
        """(dropped, duplicated, delayed) so far."""
        with self._lock:
            return self.dropped, self.duplicated, self.delayed

    def reorder_count(self) -> int:
        with self._lock:
            return self.reordered

"""Durable FIFO work queue with exactly-once consumption (paper section 5.3).

The paper implements its work queue with Apache Kafka "to ensure durability
of updates and exactly-once delivery to workers", with FIFO semantics and
timestamp ordering.  This in-process reproduction keeps the same contract,
with the ingress window as the unit it stores and hands out:

* a window is appended in timestamp order as one entry; offsets still count
  updates, as Kafka's do, so a window of ``n`` updates takes the next ``n``;
* :meth:`WorkQueue.drain_windows` hands out the oldest waiting window — any
  pull receives a timestamp lower or equal to every other queued window's;
* a handed-out window stays *in flight* until the consumer asks for the
  next one, which acks it; if its run fails, :meth:`WorkQueue.redeliver`
  puts it back at the head, so delivery is at-least-once.  Output is
  exactly-once because the consumer publishes a window's deltas only after
  the whole window ran and the window is acked only after it published
  (paper section 5.5): a window that did not finish has published nothing,
  so its re-run cannot duplicate.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Iterator, List, Optional, Sequence, Tuple

from repro.errors import OffsetError, WorkerCrashed
from repro.telemetry import ensure
from repro.types import EdgeUpdate, Timestamp

#: one appended window: its first offset, its timestamp, its updates
Entry = Tuple[int, Timestamp, Tuple[EdgeUpdate, ...]]


class WorkQueue:
    """Single-partition durable queue of windows: append, drain, redeliver.

    Not thread-safe: a session makes every call on its own thread.
    """

    def __init__(self, telemetry=None) -> None:
        # Only unacked windows are retained, so queue state is bounded by
        # the backlog, not by how long the stream has been running.
        self._ready: Deque[Entry] = deque()
        #: handed-out windows, oldest first; each is older than every ready one
        self._in_flight: List[Entry] = []
        self._ready_updates = 0
        self._appended = 0
        self._acked = 0
        #: in-flight updates returned to the queue: one per crash of the
        #: hand-out hook, a window's worth per :meth:`redeliver`
        self.redelivered = 0
        self._last_ts: Timestamp = 0
        telemetry = ensure(telemetry)
        self._telemetry_on = telemetry.enabled
        self._h_ack_latency = telemetry.registry.histogram(
            "repro_queue_ack_latency_seconds",
            "seconds between an update's hand-out and its ack",
        )

    # -- producer ------------------------------------------------------------

    def append_window(
        self, timestamp: Timestamp, updates: Sequence[EdgeUpdate]
    ) -> range:
        """Durably append one window's updates; returns their offsets.

        A regressing timestamp raises before anything is appended; an empty
        window appends nothing and checks nothing.
        """
        first = self._appended
        if not updates:
            return range(first, first)
        if timestamp < self._last_ts:
            raise OffsetError(
                f"timestamps must be non-decreasing (got {timestamp} "
                f"after {self._last_ts})"
            )
        self._last_ts = timestamp
        updates = tuple(updates)
        self._ready.append((first, timestamp, updates))
        self._ready_updates += len(updates)
        self._appended = first + len(updates)
        return range(first, self._appended)

    # -- consumer --------------------------------------------------------

    def drain_windows(
        self, on_hand_out: Optional[Callable[[int, Timestamp], None]] = None
    ) -> Iterator[Tuple[Timestamp, Tuple[EdgeUpdate, ...]]]:
        """Yield ``(timestamp, updates)`` per window, acking on completion.

        The queue's one consumer.  ``on_hand_out(offset, timestamp)`` runs
        once per update, in offset order, as its window goes into flight; if
        it raises :class:`~repro.errors.WorkerCrashed` the update counts as
        redelivered (the worker is considered restarted with fresh soft
        state) and is handed out again, so a crashy drain hands out exactly
        the crash-free windows.  A window is acked only when the consumer
        asks for the next one, i.e. after its loop body ran (and published)
        without raising: paper section 5.5, publish before ack.  A consumer
        that fails mid-window calls :meth:`redeliver`, so nothing is left in
        flight and :meth:`low_watermark` stays below the window; one that
        abandons the generator leaves the window in flight, to be
        redelivered.
        """
        while self._ready:
            entry = self._ready.popleft()
            first, ts, updates = entry
            self._ready_updates -= len(updates)
            self._in_flight.append(entry)
            handed_out_at = time.perf_counter() if self._telemetry_on else 0.0
            if on_hand_out is not None:
                for offset in range(first, first + len(updates)):
                    while True:
                        try:
                            on_hand_out(offset, ts)
                            break
                        except WorkerCrashed:
                            self.redelivered += 1
            yield ts, updates
            self._ack(entry, handed_out_at)

    def _ack(self, entry: Entry, handed_out_at: float) -> None:
        """Mark an in-flight window fully processed."""
        try:
            self._in_flight.remove(entry)
        except ValueError:
            raise OffsetError(
                f"the window at offset {entry[0]} is not in flight"
            ) from None
        n = len(entry[2])
        self._acked += n
        if self._telemetry_on:
            latency = time.perf_counter() - handed_out_at
            for _ in range(n):
                self._h_ack_latency.observe(latency)

    def redeliver(self) -> None:
        """Return every in-flight window to the head of the queue, in order."""
        n = sum(len(updates) for _, _, updates in self._in_flight)
        self._ready.extendleft(reversed(self._in_flight))
        self._in_flight.clear()
        self._ready_updates += n
        self.redelivered += n

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        """Updates waiting to be handed out."""
        return self._ready_updates

    def is_drained(self) -> bool:
        """All appended windows acknowledged."""
        return not self._ready and not self._in_flight

    def in_flight_offsets(self) -> List[int]:
        return [
            offset
            for first, _, updates in self._in_flight
            for offset in range(first, first + len(updates))
        ]

    def total_appended(self) -> int:
        return self._appended

    def acked_count(self) -> int:
        return self._acked

    def low_watermark(self) -> Timestamp:
        """Highest timestamp T such that every window with ts <= T is acked.

        Used for ordered output release and garbage collection (paper
        sections 5.1, 5.4).  Returns 0 when nothing can be guaranteed.
        """
        oldest = self._in_flight or self._ready
        watermark = oldest[0][1] - 1 if oldest else self._last_ts
        return max(watermark, 0)

"""Durable FIFO work queue with exactly-once consumption (paper section 5.3).

The paper implements its work queue with Apache Kafka "to ensure durability
of updates and exactly-once delivery to workers", with FIFO semantics and
timestamp ordering.  This in-process reproduction keeps the same contract:

* items are appended in timestamp order and assigned monotonic offsets;
* ``poll`` hands out the lowest-offset item that is neither in flight nor
  acknowledged — any pull receives a timestamp lower or equal to all other
  queued items;
* a polled item stays *in flight* until ``ack``; if its worker crashes,
  ``redeliver`` returns it to the queue, so delivery is at-least-once.
  Output is exactly-once because the consumer publishes a window's deltas
  only after the whole window ran and acks only after it published
  (:meth:`WorkQueue.drain_windows`, paper section 5.5): a window that did
  not finish has published nothing, so its re-run cannot duplicate.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import OffsetError, QueueClosedError, WorkerCrashed
from repro.telemetry import ensure
from repro.types import EdgeUpdate, Timestamp


@dataclass(frozen=True)
class WorkItem:
    """One unit of work: a single edge update within a window."""

    offset: int
    timestamp: Timestamp
    update: EdgeUpdate


class WorkQueue:
    """Single-partition durable queue: append, poll, ack, redeliver.

    Not thread-safe: a session makes every call on its own thread.
    """

    def __init__(self, telemetry=None) -> None:
        # Only unacked items are retained, so queue state is bounded by the
        # backlog, not by how long the stream has been running.
        self._items: Dict[int, WorkItem] = {}  # offset -> unacked item
        self._appended = 0
        self._ready: List[int] = []  # min-heap of offsets ready to poll
        self._in_flight: Dict[int, WorkItem] = {}
        self._acked = 0
        self._closed = False
        self._last_ts: Timestamp = 0
        telemetry = ensure(telemetry)
        self._telemetry_on = telemetry.enabled
        registry = telemetry.registry
        self._c_appended = registry.counter(
            "repro_queue_appended_total", "work items durably appended"
        )
        self._c_acked = registry.counter(
            "repro_queue_acked_total", "work items fully processed and acked"
        )
        self._c_redelivered = registry.counter(
            "repro_queue_redelivered_total",
            "in-flight items returned to the queue after a worker crash",
        )
        self._g_depth = registry.gauge(
            "repro_queue_depth", "items currently ready to poll"
        )
        self._h_ack_latency = registry.histogram(
            "repro_queue_ack_latency_seconds",
            "seconds between an item's poll and its ack",
        )
        #: poll wall-clock per in-flight offset (telemetry mode only)
        self._poll_times: Dict[int, float] = {}

    # -- producer ------------------------------------------------------------

    def append(self, timestamp: Timestamp, update: EdgeUpdate) -> int:
        """Durably append an item; returns its offset."""
        return self.append_window(timestamp, (update,))[0]

    def append_window(
        self, timestamp: Timestamp, updates: Sequence[EdgeUpdate]
    ) -> range:
        """Durably append one window's updates; returns their offsets.

        Everything :meth:`append` does per item — counter, depth gauge —
        happens once for the window.  A closed queue or a regressing
        timestamp raises before anything is appended; an empty window
        appends nothing and checks nothing, like zero appends.
        """
        first = self._appended
        if not updates:
            return range(first, first)
        if self._closed:
            raise QueueClosedError("cannot append to a closed queue")
        if timestamp < self._last_ts:
            raise OffsetError(
                f"timestamps must be non-decreasing (got {timestamp} "
                f"after {self._last_ts})"
            )
        self._last_ts = timestamp
        items = self._items
        offset = first
        for update in updates:
            items[offset] = WorkItem(offset, timestamp, update)
            offset += 1
        self._appended = offset
        offsets = range(first, offset)
        # A new offset exceeds every offset in the heap (redelivered
        # ones are older), so appending it is what heappush would do.
        self._ready.extend(offsets)
        self._c_appended.inc(offset - first)
        self._g_depth.set(len(self._ready))
        return offsets

    def close(self) -> None:
        """Stop accepting new items; consumers drain what remains."""
        self._closed = True

    # -- consumer --------------------------------------------------------

    def poll(self) -> Optional[WorkItem]:
        """Take the lowest-offset ready item, marking it in flight."""
        if not self._ready:
            return None
        item = self._take()
        if self._telemetry_on:
            self._g_depth.set(len(self._ready))
        return item

    def _take(self) -> WorkItem:
        """Move the head of the ready heap into flight.

        The depth gauge is the caller's to set, once it is done taking.
        """
        offset = heapq.heappop(self._ready)
        item = self._items[offset]
        self._in_flight[offset] = item
        if self._telemetry_on:
            self._poll_times[offset] = time.perf_counter()
        return item

    def ack(self, offset: int) -> None:
        """Mark an in-flight item fully processed."""
        self.ack_window((offset,))

    def ack_window(self, offsets: Sequence[int]) -> None:
        """Mark a window's in-flight items fully processed, in order.

        One counter bump for the window.  An offset that is not in flight
        raises :class:`~repro.errors.OffsetError` once the offsets before
        it are acked, as acking them one by one would.
        """
        in_flight, items = self._in_flight, self._items
        now = time.perf_counter() if self._telemetry_on else 0.0
        acked = 0
        for offset in offsets:
            if offset not in in_flight:
                break
            del in_flight[offset]
            del items[offset]
            acked += 1
            if self._telemetry_on:
                polled_at = self._poll_times.pop(offset, None)
                if polled_at is not None:
                    self._h_ack_latency.observe(now - polled_at)
        if acked:
            self._acked += acked
            self._c_acked.inc(acked)
        if acked < len(offsets):
            raise OffsetError(f"offset {offsets[acked]} is not in flight")

    def redeliver(self, offset: int) -> None:
        """Return a crashed worker's in-flight item to the queue."""
        if offset not in self._in_flight:
            raise OffsetError(f"offset {offset} is not in flight")
        del self._in_flight[offset]
        heapq.heappush(self._ready, offset)
        self._c_redelivered.inc()
        if self._telemetry_on:
            self._poll_times.pop(offset, None)
            self._g_depth.set(len(self._ready))

    def redeliver_all(self, offsets: List[int]) -> None:
        for offset in offsets:
            self.redeliver(offset)

    def drain(
        self, on_poll: Optional[Callable[[WorkItem], None]] = None
    ) -> Iterator[WorkItem]:
        """Yield every ready item, acking each one on successful consumption.

        An item is acknowledged when the consumer asks for the next one —
        i.e. after its loop body completed without raising.  If the consumer
        raises or abandons the generator mid-item, that item stays in
        flight and can be redelivered, preserving at-least-once delivery.

        ``on_poll`` is invoked with each item right after it is taken; if
        it raises :class:`~repro.errors.WorkerCrashed` the item is
        redelivered (never yielded) and draining continues — the worker is
        considered restarted with fresh soft state, and the redelivered
        item is re-polled in offset order, so a crashy drain consumes
        items in exactly the crash-free order.  The per-item contract is
        what :meth:`TesseractEngine.drain_queue` consumes; the streaming
        session consumes :meth:`drain_windows`.
        """
        while True:
            item = self.poll()
            if item is None:
                return
            if on_poll is not None:
                try:
                    on_poll(item)
                except WorkerCrashed:
                    self.redeliver(item.offset)
                    continue
            yield item
            self.ack(item.offset)

    def drain_windows(
        self, on_poll: Optional[Callable[[WorkItem], None]] = None
    ) -> Iterator[Tuple[Timestamp, List[WorkItem]]]:
        """Yield ``(timestamp, items)`` per window, acking on completion.

        Every ready item sharing the head's timestamp — one ingress
        window, since the queue is FIFO in timestamp order — goes into
        flight together; ``on_poll`` runs per item with
        :meth:`drain`'s redeliver-and-continue on an injected
        :class:`~repro.errors.WorkerCrashed`.  The window's items are acked
        only when the consumer asks for the next window, i.e. after its
        loop body ran (and published) without raising: paper section 5.5,
        publish before ack.  A consumer that fails mid-window redelivers
        the items it was handed (:meth:`redeliver_all`), so nothing is
        left in flight and :meth:`low_watermark` stays below the window.
        """
        while True:
            items: List[WorkItem] = []
            while self._ready and (
                not items
                or self._items[self._ready[0]].timestamp == items[0].timestamp
            ):
                item = self._take()
                if on_poll is not None:
                    try:
                        on_poll(item)
                    except WorkerCrashed:
                        self.redeliver(item.offset)
                        continue
                items.append(item)
            if self._telemetry_on:
                self._g_depth.set(len(self._ready))
            if not items:
                return
            yield items[0].timestamp, items
            self.ack_window([item.offset for item in items])

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ready)

    @property
    def closed(self) -> bool:
        return self._closed

    def is_drained(self) -> bool:
        """All appended items acknowledged."""
        return not self._ready and not self._in_flight

    def in_flight_offsets(self) -> List[int]:
        return sorted(self._in_flight)

    def total_appended(self) -> int:
        return self._appended

    def acked_count(self) -> int:
        return self._acked

    def low_watermark(self) -> Timestamp:
        """Highest timestamp T such that every item with ts <= T is acked.

        Used for ordered output release and garbage collection (paper
        sections 5.1, 5.4).  Returns 0 when nothing can be guaranteed.
        """
        watermark = self._last_ts
        pending = [self._items[o].timestamp for o in self._ready]
        pending.extend(item.timestamp for item in self._in_flight.values())
        if pending:
            watermark = min(pending) - 1
        return max(watermark, 0)

"""The ingress node (paper sections 4.1, 5.1).

The ingress node sanitizes incoming graph updates, assigns timestamps in
increasing order, applies each window of updates atomically to the
multiversioned graph store, and inserts the resulting edge updates into the
work queue.  Timestamp assignment is window-based: ``window_size`` updates
share one timestamp (the paper's default window is 100K updates; snapshots
get increasing integer timestamps, section 6.1).

Update translation follows section 4.1: vertex deletions become deletions of
all incident edges; vertex additions create the (isolated) vertex; label
modifications delete the associated edges and re-add them with the new label
in the *following* window, so each window stays a consistent atomic snapshot.

Sanitization drops no-op updates (adding an edge that exists, deleting one
that does not) and collapses add+delete of the same edge within one window.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import InvalidUpdateError
from repro.store.api import GraphStore, ReclaimStats
from repro.streaming.queue import WorkQueue
from repro.types import (
    Direction,
    EdgeKey,
    EdgeUpdate,
    Label,
    Timestamp,
    Update,
    UpdateKind,
    edge_key,
    normalize_direction,
)


@dataclass
class Window:
    """One atomically applied snapshot window."""

    timestamp: Timestamp
    updates: List[EdgeUpdate] = field(default_factory=list)


@dataclass
class _PendingOp:
    """Net effect of updates to one edge within the open window."""

    added: bool
    label: Label = None
    direction: Optional[str] = None


class IngressNode:
    """Sanitizes updates, assigns timestamps, applies windows, feeds the queue."""

    def __init__(
        self,
        store: GraphStore,
        queue: Optional[WorkQueue] = None,
        window_size: int = 100,
        window_seconds: Optional[float] = None,
        clock=time.monotonic,
        gc_enabled: bool = False,
        telemetry=None,
    ) -> None:
        from repro.telemetry import SIZE_BUCKETS, ensure

        if window_size < 1:
            raise ValueError("window_size must be positive")
        if window_seconds is not None and window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        telemetry = ensure(telemetry)
        self._telemetry = telemetry
        registry = telemetry.registry
        self._c_submitted = registry.counter(
            "repro_ingress_updates_submitted_total",
            "raw updates submitted to the ingress node",
        )
        self._c_windows = registry.counter(
            "repro_ingress_windows_total", "snapshot windows applied"
        )
        self._h_window_updates = registry.histogram(
            "repro_ingress_window_updates",
            "edge updates per applied window",
            buckets=SIZE_BUCKETS,
        )
        self.store = store
        self.queue = queue
        self.window_size = window_size
        #: optional time-interval windowing (paper §5.1: windows "based on
        #: time intervals or number of updates"); whichever limit is hit
        #: first closes the window
        self.window_seconds = window_seconds
        self._clock = clock
        self._window_opened_at: Optional[float] = None
        self.gc_enabled = gc_enabled
        self._next_ts: Timestamp = store.latest_timestamp + 1
        self._pending: Dict[EdgeKey, _PendingOp] = {}
        #: edge re-adds deferred to the next window (label re-adds,
        #: delete+add conflicts), by edge key in the order they were deferred
        self._deferred: Dict[EdgeKey, Update] = {}
        self._vertex_labels: List[Tuple[int, Label]] = []
        self.windows_applied = 0
        self.updates_dropped = 0
        self.updates_accepted = 0
        self.gc_reclaimed = 0
        #: full stats of the most recent GC pass (None before the first)
        self.last_reclaim: Optional[ReclaimStats] = None

    # -- submission --------------------------------------------------------

    def submit(self, update: Update) -> None:
        """Sanitize one update into the open window; close it when full.

        A window closes when it reaches ``window_size`` updates or, with
        time-based windowing enabled, when ``window_seconds`` have elapsed
        since it opened.
        """
        self._c_submitted.inc()
        self._submit(update)

    def _submit(self, update: Update) -> None:
        """:meth:`submit` without the submitted-updates count."""
        if self._window_opened_at is None:
            self._window_opened_at = self._clock()
        self._apply_to_pending(update)
        while len(self._pending) >= self.window_size:
            self._close_window()
        if (
            self.window_seconds is not None
            and self._pending
            and self._clock() - self._window_opened_at >= self.window_seconds
        ):
            self._close_window()

    def close_window(self) -> bool:
        """Explicitly close the open window, if any content is buffered.

        Returns whether a window was applied.  Gives data sources control
        over snapshot boundaries without waiting for the size limit.
        """
        if not (self._pending or self._deferred or self._vertex_labels):
            return False
        self._close_window()
        return True

    def submit_many(self, updates: Iterable[Update]) -> None:
        """Submit ``updates`` in order, reading each chunk's records first.

        The input is taken ``window_size`` updates at a time, so a
        generator is never materialised whole.  Before a chunk is
        sanitised, a store that can batch its reads (one with a
        ``prefetch`` method: :class:`~repro.net.client.NetStoreClient`)
        fetches the records of every endpoint in the chunk at once; the
        sanitisation probes and the apply-time fill then find them held
        instead of paying one blocking fetch each.  Each update then goes
        through :meth:`submit`'s body, so windows, timestamps and verdicts
        are those of per-update submission; the submitted-updates counter
        moves once per chunk.  :meth:`submit` alone reads
        nothing ahead, and neither does a store whose copy cache is
        bounded (``cache_capacity``): its FIFO may evict what was read
        ahead before sanitisation reads it, a round trip spent for nothing.
        """
        prefetch = getattr(self.store, "prefetch", None)
        if getattr(self.store, "cache_capacity", None) is not None:
            prefetch = None
        updates = iter(updates)
        while chunk := list(itertools.islice(updates, self.window_size)):
            if prefetch is not None:
                prefetch([v for u in chunk for v in (u.src, u.dst) if v is not None])
            self._c_submitted.inc(len(chunk))
            for update in chunk:
                self._submit(update)

    def flush(self) -> None:
        """Close any open window and drain deferred updates."""
        while self._pending or self._deferred or self._vertex_labels:
            self._close_window()

    # -- sanitization ----------------------------------------------------

    def _edge_exists_now(self, key: EdgeKey) -> bool:
        """Whether the edge is alive as of the last applied window."""
        return self.store.edge_alive_at(key[0], key[1], self._next_ts - 1)

    def _direction_now(self, key: EdgeKey) -> Direction:
        """The edge's direction, in key order, as of the last applied window."""
        return self.store.edge_direction_at(key[0], key[1], self._next_ts - 1)

    def _apply_to_pending(self, update: Update) -> None:
        kind = update.kind
        if kind is UpdateKind.ADD_EDGE:
            self._pend_add(
                edge_key(update.src, update.dst),
                update.label,
                normalize_direction(update.src, update.dst, update.direction),
            )
        elif kind is UpdateKind.DELETE_EDGE:
            self._pend_delete(edge_key(update.src, update.dst))
        elif kind is UpdateKind.ADD_VERTEX:
            self.store.ensure_vertex(update.src)
            if update.label is not None:
                self._vertex_labels.append((update.src, update.label))
            self.updates_accepted += 1
        elif kind is UpdateKind.DELETE_VERTEX:
            self._pend_delete_vertex(update.src)
        elif kind is UpdateKind.SET_VERTEX_LABEL:
            self._pend_vertex_relabel(update.src, update.label)
        elif kind is UpdateKind.SET_EDGE_LABEL:
            self._pend_edge_relabel(
                edge_key(update.src, update.dst), update.label
            )
        else:  # pragma: no cover - enum is closed
            raise InvalidUpdateError(f"unknown update kind {kind!r}")

    def _pend_add(
        self, key: EdgeKey, label: Label, direction: Optional[str] = None
    ) -> None:
        if key in self._deferred:
            self.updates_dropped += 1  # already being re-added next window
            return
        pending = self._pending.get(key)
        if pending is None:
            if self._edge_exists_now(key):
                self.updates_dropped += 1  # duplicate add
            else:
                self._pending[key] = _PendingOp(
                    added=True, label=label, direction=direction
                )
                self.updates_accepted += 1
        elif pending.added:
            self.updates_dropped += 1  # duplicate add within window
        else:
            # delete followed by add within one window: the delete stays in
            # this window, the add is deferred to the next so each window
            # remains a consistent snapshot.  ``direction`` is already in
            # key order, which the re-add keeps.
            self._deferred[key] = Update.add_edge(key[0], key[1], label, direction)
            self.updates_accepted += 1

    def _pend_delete(self, key: EdgeKey) -> None:
        if key in self._deferred:
            # The edge is scheduled for re-addition next window; cancelling
            # that re-add makes this delete a net no-op.
            del self._deferred[key]
            self.updates_dropped += 2
            self.updates_accepted -= 1
            return
        pending = self._pending.get(key)
        if pending is None:
            if self._edge_exists_now(key):
                self._pending[key] = _PendingOp(added=False)
                self.updates_accepted += 1
            else:
                self.updates_dropped += 1  # delete of missing edge
        elif pending.added:
            # add followed by delete within one window: net no-op.
            del self._pending[key]
            self.updates_dropped += 2
            self.updates_accepted -= 1
        else:
            self.updates_dropped += 1  # duplicate delete

    def _pend_delete_vertex(self, v: int) -> None:
        if not self.store.has_vertex(v):
            self.updates_dropped += 1
            return
        for nbr in self.store.neighbors_at(v, self._next_ts - 1):
            self._pend_delete(edge_key(v, nbr))

    def _pend_vertex_relabel(self, v: int, label: Label) -> None:
        """Relabel = delete incident edges now, re-add next window (§4.1).

        The label change and the deletion of every incident edge must land
        in one atomic window: otherwise a snapshot could pair the new label
        with edges whose matches were derived under the old label, and
        those changes would never be discovered (no update edge marks
        them).  The relabel therefore drains the open window and then
        closes two dedicated windows — deletes+label, then re-adds —
        ignoring the size limit.
        """
        self.store.ensure_vertex(v)
        if self._pending or self._vertex_labels or self._deferred:
            self._close_window(limit=False)
        self._vertex_labels.append((v, label))
        for nbr in self.store.neighbors_at(v, self._next_ts - 1):
            key = edge_key(v, nbr)
            old_label = self.store.edge_label_at(key[0], key[1], self._next_ts - 1)
            self._pend_delete(key)
            self._deferred[key] = Update.add_edge(
                key[0], key[1], old_label, self._direction_now(key)
            )
        self._close_window(limit=False)  # label + all deletes, atomically
        if self._pending or self._deferred:
            self._close_window(limit=False)  # the re-adds

    def _pend_edge_relabel(self, key: EdgeKey, label: Label) -> None:
        """Relabel = delete now, re-add with ``label`` and the edge's
        direction next window."""
        deferred = self._deferred.get(key)
        if deferred is not None:
            # The edge is being re-added next window; relabel that re-add
            # (assigning to a held key keeps its place in the order).
            direction = deferred.direction
        else:
            pending = self._pending.get(key)
            if pending is not None and pending.added:
                direction = pending.direction  # added in this window
            elif pending is not None or self._edge_exists_now(key):
                direction = self._direction_now(key)
            else:
                self.updates_dropped += 1
                return
            self._pend_delete(key)
        self._deferred[key] = Update.add_edge(key[0], key[1], label, direction)

    # -- window application ----------------------------------------------

    def _close_window(self, limit: bool = True) -> Window:
        """Apply the open window atomically and enqueue its edge updates.

        With ``limit=False`` every pending operation is applied regardless
        of the window size (used to keep relabels atomic).  With telemetry
        enabled the application is wrapped in an ``ingress.window`` span
        and the window size lands in ``repro_ingress_window_updates``.
        """
        if not self._telemetry.enabled:
            return self._apply_window(limit)
        with self._telemetry.tracer.span("ingress.window") as span:
            window = self._apply_window(limit)
            span.set(ts=window.timestamp, updates=len(window.updates))
        self._c_windows.inc()
        self._h_window_updates.observe(len(window.updates))
        return window

    def _apply_window(self, limit: bool = True) -> Window:
        ts = self._next_ts
        window = Window(timestamp=ts)
        # Vertex labels take effect at this window's timestamp.
        for v, label in self._vertex_labels:
            self.store.set_vertex_label(v, ts, label)
        self._vertex_labels = []
        items = sorted(self._pending.items())
        cut = self.window_size if limit else len(items)
        overflow = items[cut:]
        for key, op in items[:cut]:
            u, v = key
            window.updates.append(
                EdgeUpdate(
                    u, v, added=op.added, label=op.label, direction=op.direction
                )
            )
        # One coalesced application: stores that batch over the wire
        # (NetStoreClient) ship the whole window in a few put_edges RPCs
        # instead of one add_edge/delete_edge round trip per update.
        self.store.apply_edge_updates(ts, window.updates)
        self._pending = dict(overflow)
        if self.queue is not None:
            self.queue.append_window(ts, window.updates)
        self._next_ts += 1
        self.windows_applied += 1
        # Deferred updates (label re-adds, delete+add conflicts) seed the
        # next window.
        self._window_opened_at = self._clock()
        deferred, self._deferred = self._deferred, {}
        for update in deferred.values():
            self._apply_to_pending(update)
        if self.gc_enabled and self.queue is not None:
            stats = self.store.reclaim(self.queue.low_watermark())
            self.gc_reclaimed += stats.reclaimed
            self.last_reclaim = stats
        return window

    # -- introspection -------------------------------------------------------

    @property
    def next_timestamp(self) -> Timestamp:
        return self._next_ts

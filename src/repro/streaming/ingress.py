"""The ingress node (paper sections 4.1, 5.1).

The ingress node sanitizes incoming graph updates, assigns timestamps in
increasing order, applies each window of updates atomically to the
multiversioned graph store, and inserts the resulting edge updates into the
work queue.  Timestamp assignment is window-based: ``window_size`` updates
share one timestamp (the paper's default window is 100K updates; snapshots
get increasing integer timestamps, section 6.1).

Sanitization holds a window to what applying its updates one at a time
leaves.  :func:`fold` (its docstring holds the transition table) takes each
edge update into its key's open-window state: an add of a present edge and
a delete or relabel of an absent one are dropped, an add and a delete of
one edge in one window cancel, and an edge alive when the window opened
that a relabel or a delete+add brings back is deleted now and re-added in
the *following* window, so each window stays a consistent atomic snapshot.
A vertex delete deletes, and a vertex relabel relabels to its own label,
every incident key as the open window leaves it; a vertex add creates the
vertex, and its label on a vertex that has incident keys is a vertex
relabel.  Each submitted update is counted once, accepted or
dropped.
"""

from __future__ import annotations

import itertools
import time
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


#: ``now`` of an edge alive when the window opened and untouched since
STORED = object()
#: a relabel's label that keeps the edge's own (a vertex relabel)
_OWN = object()
_EDGE_OPS = (UpdateKind.ADD_EDGE, UpdateKind.DELETE_EDGE, UpdateKind.SET_EDGE_LABEL)
#: what one op did to one key (see :meth:`IngressNode._fold`)
_SAME, _CHANGED, _CANCELLED = range(3)


def fold(key: EdgeKey, start: bool, now, op: UpdateKind, label=None, direction=None):
    """One op on one edge key, as applying it alone would see it.

    ``start`` is whether the edge was alive when the open window opened;
    ``now`` is its state after the window's earlier ops: None (absent),
    :data:`STORED`, or ``(label, direction)``, which a relabel of a STORED
    edge is given.  ``op`` is ``ADD_EDGE`` (``label``, ``direction`` in key
    order), ``DELETE_EDGE`` or ``SET_EDGE_LABEL`` (``label``)::

        op          absent now          present now
        add         present (l, d)      unchanged (a duplicate)
        delete      unchanged           absent
        relabel     unchanged           present (l, its own direction)

    Returns the state after ``op``, then the :class:`EdgeUpdate` this
    window writes and the ``(label, direction)`` the next re-adds (each or
    None), which follow from ``start`` and that state::

        start       absent after        present (l, d) after
        absent      nothing             add (l, d)
        alive       delete              delete, next window re-adds (l, d);
                                        nothing while STORED
    """
    if op is UpdateKind.ADD_EDGE:
        after = (label, direction) if now is None else now
    elif op is UpdateKind.DELETE_EDGE or now is None:
        after = None
    else:
        after = (now[0] if label is _OWN else label, now[1])
    u, v = key
    if after is None:
        return None, EdgeUpdate(u, v, False) if start else None, None
    if not start:
        return after, EdgeUpdate(u, v, True, *after), None
    if after is STORED:
        return after, None, None
    return after, EdgeUpdate(u, v, False), after


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
        from repro.telemetry import ensure

        if window_size < 1:
            raise ValueError("window_size must be positive")
        if window_seconds is not None and window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        self._telemetry = ensure(telemetry)
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
        #: the keys the open window writes: key -> (alive when the window
        #: opened, then :func:`fold`'s state, write and re-add)
        self._open: Dict[EdgeKey, tuple] = {}
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
        since it opened.  A window opens with the first update submitted
        while nothing is held open.
        """
        if self._window_opened_at is None:
            self._window_opened_at = self._clock()
        self._sanitize(update)
        while len(self._open) >= self.window_size:
            self._close_window()
        if (
            self.window_seconds is not None
            and self._open
            and self._clock() - self._window_opened_at >= self.window_seconds
        ):
            self._close_window()

    def close_window(self) -> bool:
        """Explicitly close the open window, if any content is buffered.

        Returns whether a window was applied.  Gives data sources control
        over snapshot boundaries without waiting for the size limit.
        """
        if not (self._open or self._vertex_labels):
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
        through :meth:`submit`, so windows, timestamps and verdicts are
        those of per-update submission.  :meth:`submit` alone reads
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
            for update in chunk:
                self.submit(update)

    def flush(self) -> None:
        """Close any open window and drain the re-adds it defers."""
        while self._open or self._vertex_labels:
            self._close_window()

    # -- sanitization ----------------------------------------------------

    def _sanitize(self, update: Update) -> None:
        kind, src = update.kind, update.src
        if kind in _EDGE_OPS:
            key = edge_key(src, update.dst)
            direction = normalize_direction(src, update.dst, update.direction)
            verdicts = [self._fold(key, kind, update.label, direction)]
        elif kind is UpdateKind.DELETE_VERTEX:
            verdicts = [
                self._fold(key, UpdateKind.DELETE_EDGE) for key in self._incident(src)
            ]
        elif kind is UpdateKind.SET_VERTEX_LABEL:
            self._relabel_vertex(src, update.label)
            verdicts = [_CHANGED]
        elif kind is UpdateKind.ADD_VERTEX:
            new = not self.store.has_vertex(src)
            self.store.ensure_vertex(src)
            if update.label is None:
                verdicts = [_CHANGED if new else _SAME]
            elif self._incident(src):
                # a label on a vertex with edges is a relabel: its edges
                # must mark the matches the label changes
                self._relabel_vertex(src, update.label)
                verdicts = [_CHANGED]
            else:
                self._vertex_labels.append((src, update.label))
                verdicts = [_CHANGED]
        else:  # pragma: no cover - enum is closed
            raise InvalidUpdateError(f"unknown update kind {kind!r}")
        # One submitted update is counted once: accepted when it changed
        # some key, else dropped; each add it cancelled becomes dropped too.
        cancelled = verdicts.count(_CANCELLED)
        changed = _CHANGED in verdicts
        self.updates_accepted += changed - cancelled
        self.updates_dropped += (not changed) + cancelled

    def _fold(
        self,
        key: EdgeKey,
        op: UpdateKind,
        label: Label = _OWN,
        direction: Direction = None,
    ) -> int:
        """Fold ``op`` into ``key``'s open-window state; what it did.

        :data:`_SAME` when the op left the key's state as it was,
        :data:`_CANCELLED` when a delete took away the add or re-add the
        window held, else :data:`_CHANGED`.
        """
        held = self._open.get(key)
        if held is not None:
            start, before = held[0], held[1]
            now = before
        else:
            u, v = key
            ts = self._next_ts - 1
            start = self.store.edge_alive_at(u, v, ts)
            now = before = STORED if start else None
            if start and op is UpdateKind.SET_EDGE_LABEL:
                # only a relabel of an untouched live edge reads what it holds
                own = self.store.edge_label_at(u, v, ts) if label is _OWN else None
                now = (own, self.store.edge_direction_at(u, v, ts))
        after, write, readd = fold(key, start, now, op, label, direction)
        if write is not None:
            self._open[key] = (start, after, write, readd)
        elif held is not None:
            del self._open[key]
        if after == before:
            return _SAME
        if after is None and before is not STORED:
            return _CANCELLED
        return _CHANGED

    def _incident(self, v: int) -> set:
        """Keys at ``v`` as the open window leaves them: alive when it
        opened, or written in it."""
        alive = self.store.neighbors_at(v, self._next_ts - 1)
        return {edge_key(v, w) for w in alive} | {k for k in self._open if v in k}

    def _relabel_vertex(self, v: int, label: Label) -> None:
        """Relabel = relabel every incident edge to its own label (§4.1).

        The label change and the deletion of every incident edge must land
        in one atomic window: otherwise a snapshot could pair the new label
        with edges whose matches were derived under the old label, and
        those changes would never be discovered (no update edge marks
        them).  The relabel therefore drains the open window and then
        closes two dedicated windows — deletes+label, then re-adds —
        ignoring the size limit.
        """
        self.store.ensure_vertex(v)
        if self._open or self._vertex_labels:
            self._close_window(limit=False)
        self._vertex_labels.append((v, label))
        for key in self._incident(v):
            self._fold(key, UpdateKind.SET_EDGE_LABEL)
        self._close_window(limit=False)  # label + all deletes, atomically
        if self._open:
            self._close_window(limit=False)  # the re-adds

    # -- window application ----------------------------------------------

    def _close_window(self, limit: bool = True) -> None:
        """Apply the open window atomically and enqueue its edge updates.

        With ``limit=False`` every pending operation is applied regardless
        of the window size (used to keep relabels atomic).  The application
        runs in an ``ingress.window`` span.
        """
        with self._telemetry.tracer.span("ingress.window") as span:
            ts = self._next_ts
            # Vertex labels take effect at this window's timestamp.
            for v, label in self._vertex_labels:
                self.store.set_vertex_label(v, ts, label)
            self._vertex_labels = []
            keys = sorted(self._open)
            cut = self.window_size if limit else len(keys)
            applied = [(key, self._open[key]) for key in keys[:cut]]
            updates = [write for _, (_, _, write, _) in applied]
            # One coalesced application: stores that batch over the wire
            # (NetStoreClient) ship the whole window in a few put_edges RPCs
            # instead of one add_edge/delete_edge round trip per update.
            self.store.apply_edge_updates(ts, updates)
            # keys past the size limit wait, unapplied, for the next window
            self._open = {key: self._open[key] for key in keys[cut:]}
            if self.queue is not None:
                self.queue.append_window(ts, updates)
            self._next_ts += 1
            self.windows_applied += 1
            # The re-adds (relabels, delete+add) are the next window's adds.
            for key, (_, _, _, readd) in applied:
                if readd is not None:
                    state = fold(key, False, None, UpdateKind.ADD_EDGE, *readd)
                    self._open[key] = (False, *state)
            # What stays open opens the next window now, else its first update.
            self._window_opened_at = self._clock() if self._open else None
            if self.gc_enabled and self.queue is not None:
                stats = self.store.reclaim(self.queue.low_watermark())
                self.gc_reclaimed += stats.reclaimed
                self.last_reclaim = stats
            span.set(ts=ts, updates=len(updates))

    # -- introspection -------------------------------------------------------

    @property
    def next_timestamp(self) -> Timestamp:
        return self._next_ts

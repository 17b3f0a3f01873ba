"""Hierarchical span tracing with a bounded ring-buffer recorder.

A :class:`Tracer` produces *spans* — named, timed, attributed intervals —
that nest naturally (window → task → explore phases) via a per-thread span
stack.  Completed spans land in a fixed-capacity ring buffer (oldest spans
are evicted first), so tracing a long run costs bounded memory, and can be
exported as JSON lines for offline analysis.  The ring holds each span as a
plain field tuple; :class:`SpanRecord` objects are built when it is read.

Two properties make the tracer safe to wire through hot paths:

* **Null path.** :data:`NULL_TRACER` is a module-level no-op tracer whose
  :meth:`~NullTracer.span` returns one shared :data:`NULL_SPAN` instance —
  no allocation, no clock read.  Components hold a tracer unconditionally
  and branch on ``tracer.enabled`` (or simply call through the null
  object) without measurable overhead.
* **Cross-worker shipping.** :meth:`Tracer.absorb` re-parents span records
  recorded by another tracer (e.g. in a worker process) under the current
  span, re-assigning ids so the merged trace stays consistent.  This is
  how the process backend ships its per-task spans back over the same
  channel that carries merged metrics.

For *cross-process* traces the tracer additionally carries an identity:
a ``trace_id`` naming the whole run and an optional ``node`` naming this
process ("client", "server", ...).  The RPC client sends both with the
id of its open ``rpc.call`` span (:mod:`repro.net.wire`); the server
records its span as a local root carrying that remote parent in its
attributes, and ``repro trace-merge`` (:mod:`repro.telemetry.merge`)
stitches the per-node JSONL files back into one tree.  Exports from a
tracer with a ``node`` identity start with a ``trace.meta`` line carrying
that identity; tracers without one export byte-identically to earlier
releases.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, TextIO


def _new_trace_id() -> str:
    """A fresh 64-bit hex trace id (os.urandom-backed, not the global RNG)."""
    return uuid.uuid4().hex[:16]


@dataclass(slots=True)
class SpanRecord:
    """One completed span, as stored in the ring buffer."""

    span_id: int
    parent_id: Optional[int]
    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.end - self.start,
            "attrs": self.attrs,
        }


class Span:
    """A live span; use as a context manager around the traced work."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.start = 0.0

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span while it is open."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._enter(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer._exit(self)


class Tracer:
    """Records hierarchical spans into a bounded ring buffer.

    Span nesting is tracked per thread; a span opened on a thread with an
    empty stack is a root.  Mining runs on the thread that opens the
    session's window span, so task spans nest under it; the store
    server's connection threads record their spans as explicit roots.
    """

    enabled = True

    def __init__(
        self,
        capacity: int = 8192,
        clock=time.perf_counter,
        *,
        node: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: this tracer's span clock; one call is one reading (spans opened
        #: with ``span()`` read it too, manual records call it themselves)
        self.now = clock
        #: process identity stamped on exports (``trace.meta``); ``None``
        #: keeps exports byte-identical to tracers predating trace contexts
        self.node = node
        #: run-wide trace id propagated across the wire with every RPC
        self.trace_id = trace_id if trace_id is not None else _new_trace_id()
        #: completed spans as ``(span_id, parent_id, name, start, end, attrs)``
        self._ring: "deque[tuple]" = deque(maxlen=capacity)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        #: total spans ever recorded (the ring may have evicted older ones)
        self.spans_recorded = 0
        #: spans evicted from the ring to make room for newer ones; nonzero
        #: means the buffered trace (and any export of it) is truncated
        self.dropped_spans = 0

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, **attrs: Any) -> Span:
        """Open a new span; enter the returned object as a context manager."""
        return Span(self, name, attrs)

    def _stack(self) -> List[int]:
        """This thread's open span ids, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _extend(self, records: List[tuple]) -> None:
        """Append a batch of field tuples in one lock acquisition; eviction
        accounting matches appending the records one by one."""
        with self._lock:
            overflow = len(self._ring) + len(records) - self.capacity
            if overflow > 0:
                self.dropped_spans += overflow
            self._ring.extend(records)
            self.spans_recorded += len(records)

    def _enter(self, span: Span) -> None:
        span.span_id, span.parent_id = self.enter_span()
        span.start = self.now()

    def _exit(self, span: Span) -> None:
        end = self.now()
        self.exit_span(
            span.span_id, span.parent_id, span.name, span.start, end, span.attrs
        )

    # -- manual recording (the per-task and wire hot paths) ----------------
    #
    # `with tracer.span(...)` costs a Span allocation, a kwargs dict, and
    # the calls around thread-local stack traffic and two lock
    # acquisitions per span — fine for window granularity, too heavy for
    # the per-task path and a per-RPC path that opens three spans per call.
    # The engine brackets each task with enter_span/exit_span and its own
    # two clock readings; the RPC client and server time their work with
    # clock readings they already take and append finished records through
    # these primitives: one lock covers id allocation + parent resolution,
    # one more covers the whole batch append.
    #
    # Pipelined RPC makes these spans *overlap*: a client may hold many
    # in-flight futures whose spans were opened (ids allocated, sent on
    # the wire) before any of them completes, and completion order need
    # not match open order.  That is fine by construction — ids come from
    # one monotone counter at open time, records land whenever the caller
    # finishes timing, and nothing here (or in trace-merge, which bounds
    # per-RPC clock offsets independently) assumes span intervals nest or
    # that record order matches id order.

    def open_wire_span(self) -> "tuple[int, Optional[int]]":
        """``(span_id, parent_id)`` for a manually recorded span.

        The id is allocated now because it must cross the wire before the
        span completes; the parent is whatever a ``span()`` opened on this
        thread would get (stack top, else none).  The stack is this
        thread's own and read lock-free.
        """
        stack = getattr(self._local, "stack", None)
        return self._new_id(), stack[-1] if stack else None

    def enter_span(self) -> "tuple[int, Optional[int]]":
        """Open a manually recorded span on this thread: ``(span_id, parent_id)``.

        As :meth:`open_wire_span`, and the id is pushed on this thread's
        span stack as well, so every span opened before the matching
        :meth:`exit_span` — a ``span()``, an RPC's wire span — parents
        under it.
        """
        stack = self._stack()
        span_id = self._new_id()
        parent_id = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent_id

    def exit_span(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        end: float,
        attrs: Dict[str, Any],
    ) -> None:
        """Close a span :meth:`enter_span` opened: pop it and record it."""
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] == span_id:
            stack.pop()
        self._extend([(span_id, parent_id, name, start, end, attrs)])

    def reserve_ids(self, n: int) -> int:
        """Allocate ``n`` consecutive span ids; returns the first."""
        with self._lock:
            first = self._next_id + 1
            self._next_id += n
            return first

    def record_completed(
        self, spans: "List[tuple[int, Optional[int], str, float, float, Dict[str, Any]]]"
    ) -> None:
        """Append pre-timed spans in one lock acquisition.

        Each entry is a ``(span_id, parent_id, name, start, end, attrs)``
        tuple; callers take span ids from :meth:`open_wire_span` /
        :meth:`reserve_ids` (the :class:`SpanRecord` itself is only ever
        built by the tracer, so the ring and the id sequence stay its own).
        Eviction accounting matches the one-at-a-time paths exactly.
        """
        self._extend([tuple(span) for span in spans])

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[int] = None,
        **attrs: Any,
    ) -> SpanRecord:
        """Append a pre-timed span record directly (no stack interaction)."""
        span_id = self._new_id()
        self._extend([(span_id, parent_id, name, start, end, attrs)])
        return SpanRecord(span_id, parent_id, name, start, end, attrs)

    # -- cross-worker shipping ---------------------------------------------

    def absorb(
        self, records: Iterable[SpanRecord], parent_id: Optional[int] = None
    ) -> None:
        """Merge spans recorded elsewhere, re-parenting their roots here.

        Ids are re-assigned from this tracer's sequence in one
        :meth:`reserve_ids` call, in batch order (preserving the internal
        parent structure of the absorbed batch); root spans of the batch
        attach to ``parent_id``, else the current open span.
        """
        records = list(records)
        if not records:
            return
        if parent_id is None:
            stack = self._stack()
            parent_id = stack[-1] if stack else None
        first = self.reserve_ids(len(records))
        id_map = {record.span_id: first + i for i, record in enumerate(records)}
        self._extend(
            [
                (
                    id_map[record.span_id],
                    id_map.get(record.parent_id, parent_id),
                    record.name,
                    record.start,
                    record.end,
                    record.attrs,
                )
                for record in records
            ]
        )

    # -- introspection / export --------------------------------------------

    def records(self) -> List[SpanRecord]:
        """Buffered span records, oldest first."""
        with self._lock:
            fields = list(self._ring)
        return [SpanRecord(*f) for f in fields]

    def clear(self) -> None:
        """Empty the ring (and the truncation counter describing it)."""
        with self._lock:
            self._ring.clear()
            self.dropped_spans = 0

    def _export_snapshot(self) -> "tuple[List[str], int]":
        """One lock-scoped, self-consistent snapshot rendered to JSON lines.

        The ring contents, the truncation counters, and the identity header
        are all read under a single lock acquisition, so an export racing
        concurrent span recording can neither tear a line nor pair a stale
        ``dropped_spans`` count with a newer ring.  Returns ``(lines,
        span_count)`` where ``span_count`` excludes meta/header lines.

        Line order: ``trace.meta`` (only for tracers with a ``node``
        identity), then ``trace.header`` (only for truncated traces — so
        complete traces from identity-less tracers stay byte-identical to
        earlier releases), then the spans, oldest first.
        """
        with self._lock:
            fields = list(self._ring)
            dropped = self.dropped_spans
            recorded = self.spans_recorded
        lines: List[str] = []
        if self.node is not None:
            lines.append(
                json.dumps(
                    {
                        "name": "trace.meta",
                        "node": self.node,
                        "trace_id": self.trace_id,
                        "clock": "monotonic",
                    },
                    sort_keys=True,
                )
            )
        if dropped:
            lines.append(
                json.dumps(
                    {
                        "name": "trace.header",
                        "dropped_spans": dropped,
                        "spans_recorded": recorded,
                        "capacity": self.capacity,
                    },
                    sort_keys=True,
                )
            )
        lines.extend(
            json.dumps(SpanRecord(*f).to_dict(), sort_keys=True, default=str)
            for f in fields
        )
        return lines, len(fields)

    def to_jsonl(self) -> str:
        """The buffered spans as JSON lines (one span per line).

        Truncated traces are prefixed with a ``trace.header`` line, and
        tracers carrying a ``node`` identity with a ``trace.meta`` line
        (see :meth:`_export_snapshot`).
        """
        lines, _count = self._export_snapshot()
        return "\n".join(lines)

    def export_jsonl(self, out: TextIO) -> int:
        """Write the buffered spans as JSON lines; returns spans written.

        Like :meth:`to_jsonl`, truncated traces get a leading
        ``trace.header`` line (not counted in the return value).  The
        whole export is rendered from one lock-scoped snapshot and written
        with a single ``out.write``, so concurrent span recording (or a
        concurrent export to the same stream) can never interleave partial
        lines.
        """
        lines, count = self._export_snapshot()
        if lines:
            out.write("\n".join(lines) + "\n")
        return count


class NullSpan:
    """Shared no-op span: entering, exiting, and ``set`` do nothing."""

    __slots__ = ()
    span_id = None
    parent_id = None

    def set(self, **attrs: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


NULL_SPAN = NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op, nothing allocates."""

    enabled = False
    capacity = 0
    spans_recorded = 0
    dropped_spans = 0
    node = None
    trace_id = ""

    def span(self, name: str, **attrs: Any) -> NullSpan:
        return NULL_SPAN

    def record(self, name, start, end, parent_id=None, **attrs):
        return None

    def now(self) -> float:
        return 0.0

    def open_wire_span(self) -> "tuple[int, Optional[int]]":
        return 0, None

    def enter_span(self) -> "tuple[int, Optional[int]]":
        return 0, None

    def exit_span(self, span_id, parent_id, name, start, end, attrs) -> None:
        return None

    def reserve_ids(self, n: int) -> int:
        return 0

    def record_completed(self, spans) -> None:
        return None

    def absorb(self, records, parent_id=None) -> None:
        return None

    def records(self) -> List[SpanRecord]:
        return []

    def clear(self) -> None:
        return None

    def to_jsonl(self) -> str:
        return ""

    def export_jsonl(self, out: TextIO) -> int:
        return 0


NULL_TRACER = NullTracer()

"""Tracing from outside: spans around the calls into each layer.

Nothing under ``src/repro`` is edited or patched at module or class level.
A traced run hands the session two benchmark-owned proxies — a
:class:`TimedStore` and a :class:`TimedAlgorithm` — and wraps bound methods
on the *instances* the session exposes (``session.ingress.submit_many`` /
``flush``, ``session.run_pending``, ``session.backend.run_tasks``, the
``Stream`` returned by ``output_stream()``).

Per window the probe records the span tree::

    window
    +- streaming.ingest            (submit_many, then ingress.flush)
    |  +- store.apply
    +- runtime.run_pending
       +- runtime.backend.run_tasks
       +- dataflow.push

Calls that happen millions of times (store reads, filter, match, the motif
key) are *folded*: each open span keeps a ``bucket -> [count, seconds]``
cell instead of one span per call.  A span's self time is its duration
minus its child spans minus its folded cells, so ``core.explore`` (the
engine's own work inside ``run_tasks``) falls out by subtraction.  Folded
buckets must not nest inside one another; none of the six workloads' apps
reads the store from ``filter``/``match``.

Spans stay in memory and are written once, by :meth:`Probe.write_jsonl`.
"""

from __future__ import annotations

import abc
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from repro.core.api import MiningAlgorithm
from repro.store.api import GraphStore

_clock = time.perf_counter


class Probe:
    """Span recorder plus the factories for every wrapper a traced run uses."""

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._stack: List[dict] = []
        #: folded cells of the innermost open span (calls outside any span
        #: — set-up, warm-up bookkeeping — land in a throwaway dict)
        self._outside: Dict[str, list] = {}
        self._cells: Dict[str, list] = self._outside
        self.window = -1
        self.queue_depth_max = 0
        self.records_in = 0

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> dict:
        span = {
            "id": len(self.spans) + len(self._stack),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "window": self.window,
            "folded": {},
            "start": _clock(),
        }
        self._stack.append(span)
        self._cells = span["folded"]
        return span

    def close(self, span: dict) -> None:
        span["end"] = _clock()
        popped = self._stack.pop()
        assert popped is span, "probe spans must close innermost-first"
        self._cells = self._stack[-1]["folded"] if self._stack else self._outside
        self.spans.append(span)

    def reset(self) -> None:
        """Forget everything recorded so far (called after warm-up)."""
        assert not self._stack
        self.spans.clear()
        self._outside.clear()
        self.queue_depth_max = 0
        self.records_in = 0

    def spanned(self, name: str, fn: Callable, cpu: bool = False) -> Callable:
        """``fn`` inside a span; ``cpu`` also records the caller's CPU time."""

        def call(*args, **kwargs):
            span = self.open(name)
            cpu0 = time.process_time() if cpu else 0.0
            try:
                return fn(*args, **kwargs)
            finally:
                if cpu:
                    span["cpu_s"] = time.process_time() - cpu0
                self.close(span)

        return call

    def fold(self, bucket: str, fn: Callable) -> Callable:
        """``fn`` with its count and seconds folded into the open span."""

        def call(*args, **kwargs):
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                cell = self._cells.get(bucket)
                if cell is None:
                    cell = self._cells[bucket] = [0, 0.0]
                cell[0] += 1
                cell[1] += dt

        return call

    # -- wrapper factories ---------------------------------------------------

    def wrap_store(self, store: GraphStore) -> "TimedStore":
        return TimedStore(store, self)

    def wrap_algorithm(self, algorithm: MiningAlgorithm) -> "TimedAlgorithm":
        return TimedAlgorithm(algorithm, self)

    def wrap_session(self, session, source) -> None:
        """Instance-level wraps on what the session exposes."""
        ingress = session.ingress
        ingress.submit_many = self.spanned("streaming.ingest", ingress.submit_many)
        ingress.flush = self.spanned("streaming.ingest", ingress.flush)
        run_pending = self.spanned("runtime.run_pending", session.run_pending)
        queue = session.queue

        def run_pending_sampled():
            self.queue_depth_max = max(self.queue_depth_max, len(queue))
            return run_pending()

        session.run_pending = run_pending_sampled
        backend = session.backend
        backend.run_tasks = self.spanned(
            "runtime.backend.run_tasks", backend.run_tasks, cpu=True
        )
        push = self.spanned("dataflow.push", source.push_deltas)

        def push_counted(deltas):
            self.records_in += len(deltas)
            return push(deltas)

        source.push_deltas = push_counted

    # -- analysis ------------------------------------------------------------

    def summary(self) -> "TraceSummary":
        return TraceSummary(self.spans)

    def write_jsonl(self, path) -> int:
        """One line per span: name, start, end, parent, window, self, folded."""
        summary = self.summary()
        with open(path, "w") as out:
            for span in self.spans:
                row = {
                    "id": span["id"],
                    "name": span["name"],
                    "parent": span["parent"],
                    "window": span["window"],
                    "start": span["start"],
                    "end": span["end"],
                    "self_s": summary.self_of[span["id"]],
                    "folded": {
                        bucket: {"count": c, "busy_s": s}
                        for bucket, (c, s) in sorted(span["folded"].items())
                    },
                }
                if "cpu_s" in span:
                    row["cpu_s"] = span["cpu_s"]
                out.write(json.dumps(row) + "\n")
        return len(self.spans)


class TraceSummary:
    """Per-name busy/self/calls and per-bucket folded totals of one trace."""

    def __init__(self, spans: List[dict]) -> None:
        children: Dict[int, float] = defaultdict(float)
        for span in spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
        self.self_of: Dict[int, float] = {}
        self.busy: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.cpu: Dict[str, float] = defaultdict(float)
        self.fold_calls: Dict[str, int] = defaultdict(int)
        self.fold_busy: Dict[str, float] = defaultdict(float)
        for span in spans:
            duration = span["end"] - span["start"]
            folded = 0.0
            for bucket, (count, seconds) in span["folded"].items():
                self.fold_calls[bucket] += count
                self.fold_busy[bucket] += seconds
                folded += seconds
            own = duration - children[span["id"]] - folded
            self.self_of[span["id"]] = own
            name = span["name"]
            self.busy[name] += duration
            self.self_s[name] += own
            self.calls[name] += 1
            self.cpu[name] += span.get("cpu_s", 0.0)

    def folded_under(self, prefix: str) -> float:
        """Seconds folded into every bucket whose name starts with ``prefix``."""
        return sum(v for bucket, v in self.fold_busy.items() if bucket.startswith(prefix))


# -- the proxies ----------------------------------------------------------------


#: protocol reads the pipeline issues, by the bucket they fold into
_FOLDED = {
    "neighbor_states_at": "store.neighbor_states",
    "has_vertex": "store.read",
    "num_vertices": "store.read",
    "vertex_label_at": "store.read",
    "edge_alive_at": "store.read",
    "edge_updated_at": "store.read",
    "edge_label_at": "store.read",
    "edge_direction_at": "store.read",
    "updated_keys_in": "store.read",
    "neighbors_at": "store.read",
    "union_neighbors_at": "store.read",
    "degree_at": "store.read",
    "fetch_record": "store.read",
    "window_completed": "store.maintain",
}

#: the rest of the protocol, forwarded untimed (writes reach the store
#: through ``apply_edge_updates``, which gets a span of its own)
_FORWARDED = (
    "add_edge",
    "delete_edge",
    "set_vertex_label",
    "ensure_vertex",
    "vertices",
    "edges_at",
    "num_edges_at",
    "as_adjacency",
    "get_record",
    "iter_records",
    "put_record",
    "set_latest_timestamp",
    "reclaim",
    "close",
    "tombstone_count",
    "memory_items",
    "store_stats",
)


class TimedStore(GraphStore):
    """Delegating ``GraphStore`` proxy timing every call the pipeline makes.

    Every protocol method is bound, per instance, to the wrapped store's
    *own* implementation (so an override such as
    ``NetStoreClient.neighbors_at`` keeps its behaviour): reads fold into
    ``store.neighbor_states`` / ``store.read``, ``window_completed`` into
    ``store.maintain``, and ``apply_edge_updates`` gets a ``store.apply``
    span.  Anything outside the protocol (``net_log``, ``log``) is reached
    through ``__getattr__``.

    Under the ``process`` backend the proxy is forked into the workers with
    the store; what the workers fold there is lost with them.
    """

    def __init__(self, inner: GraphStore, probe: Probe) -> None:
        self._inner = inner
        for name, bucket in _FOLDED.items():
            setattr(self, name, probe.fold(bucket, getattr(inner, name)))
        for name in _FORWARDED:
            setattr(self, name, getattr(inner, name))
        self.apply_edge_updates = probe.spanned(
            "store.apply", inner.apply_edge_updates
        )

    @property
    def kind(self) -> str:
        return self._inner.kind

    @property
    def shards(self):
        return self._inner.shards

    @property
    def access_stats(self):
        return self._inner.access_stats

    @property
    def latest_timestamp(self):
        return self._inner.latest_timestamp

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


def _forward(name: str) -> Callable:
    def method(self, *args, **kwargs):
        return getattr(self._inner, name)(*args, **kwargs)

    method.__name__ = name
    return method


# Class-level forwards satisfy the ABC; the per-instance bindings made in
# ``__init__`` shadow them on every call.
for _name in (*_FOLDED, *_FORWARDED):
    setattr(TimedStore, _name, _forward(_name))
abc.update_abstractmethods(TimedStore)


class TimedAlgorithm(MiningAlgorithm):
    """``MiningAlgorithm`` proxy folding ``filter`` / ``match`` call times."""

    def __init__(self, inner: MiningAlgorithm, probe: Probe) -> None:
        self._inner = inner
        self.max_size = inner.max_size
        self.induced = inner.induced
        self.ordered_output = inner.ordered_output
        self.uses_edge_labels = inner.uses_edge_labels
        self.uses_directions = inner.uses_directions
        # instance attributes shadow the class's (abstract-satisfying) methods
        self.filter = probe.fold("apps.filter", inner.filter)
        self.match = probe.fold("apps.match", inner.match)

    def filter(self, s) -> bool:  # shadowed per instance
        raise NotImplementedError

    def match(self, s) -> bool:  # shadowed per instance
        raise NotImplementedError

    @property
    def name(self) -> str:
        return self._inner.name


def layer_ledger(summary: TraceSummary, in_process: bool) -> Dict[str, float]:
    """Self seconds per layer (layer = module under ``src/repro``).

    ``in_process`` says the backend ran the engine in this process, so the
    self time of ``run_tasks`` *is* EXPLORE; otherwise it is fan-out, merge
    and waiting for workers, and belongs to ``runtime``.
    """
    run_tasks_self = summary.self_s["runtime.backend.run_tasks"]
    return {
        "streaming": summary.self_s["streaming.ingest"],
        "store": summary.self_s["store.apply"]
        + summary.folded_under("store."),
        "runtime": summary.self_s["runtime.run_pending"]
        + (0.0 if in_process else run_tasks_self),
        "core": run_tasks_self if in_process else 0.0,
        "apps": summary.folded_under("apps."),
        "dataflow": summary.self_s["dataflow.push"],
        "graph": summary.fold_busy["graph.canonical"],
    }


def check_ledger(
    ledger: Dict[str, float], summary: TraceSummary, wall: float
) -> Optional[str]:
    """Layer self times plus the driver's own must equal the wall, +-5%.

    ``wall`` is clocked around the traced loop, independently of the spans,
    so this fails when a span is lost, mis-parented or double-counted.
    """
    total = sum(ledger.values()) + summary.self_s["window"]
    if abs(total - wall) > 0.05 * wall:
        return f"self times sum to {total:.3f}s, traced wall is {wall:.3f}s (>5% apart)"
    return None

"""Cross-node trace assembly: stitch per-process JSONL files into one tree.

Each process exports its tracer with a node identity (a leading
``trace.meta`` line, see :mod:`repro.telemetry.trace`); span ids are only
unique within a node, so the global identity of a span is the pair
``(node, span_id)``.  A server's ``rpc.server`` span carries its logical
parent — the client's ``rpc.call`` span — as a ``remote_parent``
attribute recorded from the trace context that crossed the wire.  This
module resolves those references and derives two artifacts:

* the **merged tree**: every span keyed globally, children attached to
  local parents within a node and to remote parents across nodes;
* the **RPC decomposition**: for each client ``rpc.call`` span, where its
  latency went —

  ===============  ========================================================
  component        meaning
  ===============  ========================================================
  ``client_s``     the whole client-observed call (span duration)
  ``backoff_s``    retry backoff sleeps (``rpc.retry`` child spans)
  ``server_s``     server-side handling (matched ``rpc.server`` spans)
  ``store_s``      the store call inside the server (``store.*`` children)
  ``wire_s``       the remainder: serialization + socket + scheduling
  ===============  ========================================================

Clock-skew handling (repro-lint RL001 stays clean: no wall clocks
anywhere).  All timestamps are **monotonic-clock readings local to their
node** — two files' time axes are incomparable absolute values with some
unknown per-pair offset.  For every matched RPC the nesting constraint
(the server span happened inside the client span) bounds that offset to
the interval ``[server_end - client_end, server_start - client_start]``;
intersecting the intervals across all matched RPCs of a node pair yields
the feasible offset range.  An empty intersection means no single offset
explains the data — the pair is flagged as skewed (drifting or restarted
clock).  Offsets are only ever *bounded*, never "corrected" with wall
time.

Entry point: ``repro trace-merge client.jsonl server.jsonl``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, TextIO, Tuple

#: global span key: (node, span_id)
SpanKey = Tuple[str, int]


@dataclass
class TraceFile:
    """One parsed per-node JSONL export."""

    node: str
    trace_id: str
    spans: List[Dict[str, Any]]
    dropped_spans: int = 0


@dataclass
class RpcRow:
    """One client RPC and where its time went (all seconds)."""

    op: str
    client_node: str
    client_span_id: int
    server_node: Optional[str]
    attempts: int
    server_spans: int
    dedup_replays: int
    client_s: float
    backoff_s: float
    server_s: float
    store_s: float

    @property
    def wire_s(self) -> float:
        return max(0.0, self.client_s - self.backoff_s - self.server_s)

    @property
    def server_overhead_s(self) -> float:
        return max(0.0, self.server_s - self.store_s)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "op": self.op,
            "client_node": self.client_node,
            "client_span_id": self.client_span_id,
            "server_node": self.server_node,
            "attempts": self.attempts,
            "server_spans": self.server_spans,
            "dedup_replays": self.dedup_replays,
            "client_s": self.client_s,
            "backoff_s": self.backoff_s,
            "server_s": self.server_s,
            "store_s": self.store_s,
            "wire_s": self.wire_s,
            "server_overhead_s": self.server_overhead_s,
        }


@dataclass
class SkewReport:
    """Feasible monotonic-clock offset range for one (client, server) pair."""

    client_node: str
    server_node: str
    rpcs: int
    offset_low: float
    offset_high: float

    @property
    def consistent(self) -> bool:
        """True when one fixed offset explains every matched RPC."""
        return self.offset_low <= self.offset_high

    def to_dict(self) -> Dict[str, Any]:
        return {
            "client_node": self.client_node,
            "server_node": self.server_node,
            "rpcs": self.rpcs,
            "offset_low": self.offset_low,
            "offset_high": self.offset_high,
            "consistent": self.consistent,
        }


@dataclass
class MergedTrace:
    """The stitched result: spans, tree edges, RPC rows, skew verdicts."""

    files: List[TraceFile]
    spans: Dict[SpanKey, Dict[str, Any]]
    children: Dict[SpanKey, List[SpanKey]]
    roots: List[SpanKey]
    rpcs: List[RpcRow]
    unmatched_calls: int
    orphan_server_spans: int
    skew: List[SkewReport]

    def to_json(self) -> str:
        """Deterministic JSON document for files and dashboards."""
        return json.dumps(
            {
                "nodes": [
                    {
                        "node": f.node,
                        "trace_id": f.trace_id,
                        "spans": len(f.spans),
                        "dropped_spans": f.dropped_spans,
                    }
                    for f in self.files
                ],
                "rpcs": [row.to_dict() for row in self.rpcs],
                "unmatched_calls": self.unmatched_calls,
                "orphan_server_spans": self.orphan_server_spans,
                "skew": [s.to_dict() for s in self.skew],
                "totals": self.totals(),
            },
            sort_keys=True,
            indent=2,
        )

    def totals(self) -> Dict[str, Any]:
        """Aggregate decomposition over all matched RPCs."""
        matched = [r for r in self.rpcs if r.server_spans]
        return {
            "rpc_calls": len(self.rpcs),
            "matched": len(matched),
            "client_s": sum(r.client_s for r in self.rpcs),
            "backoff_s": sum(r.backoff_s for r in self.rpcs),
            "server_s": sum(r.server_s for r in self.rpcs),
            "store_s": sum(r.store_s for r in self.rpcs),
            "wire_s": sum(r.wire_s for r in matched),
        }

    def render(self, top: int = 10) -> str:
        """Human-readable summary: per-op decomposition plus skew verdicts."""
        lines = []
        for f in self.files:
            truncated = f" (TRUNCATED: {f.dropped_spans} dropped)" if f.dropped_spans else ""
            lines.append(
                f"node {f.node}: {len(f.spans)} spans, trace {f.trace_id}{truncated}"
            )
        totals = self.totals()
        lines.append(
            f"{totals['rpc_calls']} client RPCs, {totals['matched']} matched to "
            f"server spans, {self.orphan_server_spans} orphan server span(s)"
        )
        per_op: Dict[str, List[RpcRow]] = {}
        for row in self.rpcs:
            per_op.setdefault(row.op, []).append(row)
        lines.append(
            f"{'op':<18}{'calls':>7}{'client ms':>11}{'wire ms':>10}"
            f"{'server ms':>11}{'store ms':>10}{'backoff ms':>12}"
        )
        ranked = sorted(
            per_op.items(), key=lambda kv: (-sum(r.client_s for r in kv[1]), kv[0])
        )
        for op, rows in ranked[:top]:
            lines.append(
                f"{op:<18}{len(rows):>7}"
                f"{sum(r.client_s for r in rows) * 1e3:>11.2f}"
                f"{sum(r.wire_s for r in rows) * 1e3:>10.2f}"
                f"{sum(r.server_s for r in rows) * 1e3:>11.2f}"
                f"{sum(r.store_s for r in rows) * 1e3:>10.2f}"
                f"{sum(r.backoff_s for r in rows) * 1e3:>12.2f}"
            )
        if len(ranked) > top:
            lines.append(f"... {len(ranked) - top} more op(s) not shown")
        for s in self.skew:
            if s.consistent:
                lines.append(
                    f"clocks {s.client_node}->{s.server_node}: consistent "
                    f"(offset within [{s.offset_low:.6f}, {s.offset_high:.6f}] s "
                    f"over {s.rpcs} RPCs)"
                )
            else:
                lines.append(
                    f"clocks {s.client_node}->{s.server_node}: SKEW FLAGGED "
                    f"(no single monotonic offset fits {s.rpcs} RPCs; "
                    f"bounds [{s.offset_low:.6f}, {s.offset_high:.6f}] s)"
                )
        return "\n".join(lines)


def load_trace_file(
    source: Iterable[str], default_node: Optional[str] = None
) -> TraceFile:
    """Parse one JSONL export (an open file or any iterable of lines).

    The node identity comes from the leading ``trace.meta`` line; files
    from identity-less tracers need a ``default_node``.
    """
    node: Optional[str] = default_node
    trace_id = ""
    dropped = 0
    spans: List[Dict[str, Any]] = []
    for raw in source:
        line = raw.strip()
        if not line:
            continue
        record = json.loads(line)
        name = record.get("name")
        if name == "trace.meta":
            node = record.get("node", node)
            trace_id = record.get("trace_id", trace_id)
        elif name == "trace.header":
            dropped = int(record.get("dropped_spans", 0))
        else:
            spans.append(record)
    if node is None:
        raise ValueError(
            "trace file has no trace.meta line and no default_node was given"
        )
    return TraceFile(node=node, trace_id=trace_id, spans=spans, dropped_spans=dropped)


def load_trace_path(path: str, default_node: Optional[str] = None) -> TraceFile:
    with open(path) as fh:
        return load_trace_file(fh, default_node=default_node)


def merge_traces(files: List[TraceFile]) -> MergedTrace:
    """Stitch per-node trace files into one tree and decompose its RPCs."""
    spans: Dict[SpanKey, Dict[str, Any]] = {}
    for f in files:
        for span in f.spans:
            spans[(f.node, span["span_id"])] = span

    children: Dict[SpanKey, List[SpanKey]] = {}
    roots: List[SpanKey] = []
    for f in files:
        for span in f.spans:
            key = (f.node, span["span_id"])
            parent = _parent_key(f.node, span)
            if parent is not None and parent in spans:
                children.setdefault(parent, []).append(key)
            else:
                roots.append(key)
    for kids in children.values():
        kids.sort(key=lambda k: spans[k]["start"])
    roots.sort(key=lambda k: (k[0], spans[k]["start"]))

    rpcs, unmatched, orphans, skew = _decompose(files, spans, children)
    return MergedTrace(
        files=files,
        spans=spans,
        children=children,
        roots=roots,
        rpcs=rpcs,
        unmatched_calls=unmatched,
        orphan_server_spans=orphans,
        skew=skew,
    )


def _parent_key(node: str, span: Dict[str, Any]) -> Optional[SpanKey]:
    remote = span.get("attrs", {}).get("remote_parent")
    if isinstance(remote, dict):
        return (remote.get("node", ""), remote.get("span_id", -1))
    parent_id = span.get("parent_id")
    if parent_id is None:
        return None
    return (node, parent_id)


@dataclass
class _PairBounds:
    rpcs: int = 0
    low: float = float("-inf")
    high: float = float("inf")


def _decompose(
    files: List[TraceFile],
    spans: Dict[SpanKey, Dict[str, Any]],
    children: Dict[SpanKey, List[SpanKey]],
) -> Tuple[List[RpcRow], int, int, List[SkewReport]]:
    # index server spans by the client span they answer
    by_parent: Dict[SpanKey, List[Tuple[str, Dict[str, Any]]]] = {}
    orphan_servers = 0
    for f in files:
        for span in f.spans:
            if span.get("name") != "rpc.server":
                continue
            remote = span.get("attrs", {}).get("remote_parent")
            if not isinstance(remote, dict):
                orphan_servers += 1
                continue
            parent = (remote.get("node", ""), remote.get("span_id", -1))
            if parent not in spans:
                orphan_servers += 1
                continue
            by_parent.setdefault(parent, []).append((f.node, span))

    rows: List[RpcRow] = []
    unmatched = 0
    bounds: Dict[Tuple[str, str], _PairBounds] = {}
    for f in files:
        for span in f.spans:
            if span.get("name") != "rpc.call":
                continue
            key = (f.node, span["span_id"])
            attrs = span.get("attrs", {})
            backoff = sum(
                spans[c]["duration"]
                for c in children.get(key, ())
                if spans[c].get("name") == "rpc.retry"
            )
            matches = by_parent.get(key, [])
            server_s = 0.0
            store_s = 0.0
            replays = 0
            server_node: Optional[str] = None
            for srv_node, srv in matches:
                server_node = srv_node
                server_s += srv["duration"]
                for child_key in children.get((srv_node, srv["span_id"]), ()):
                    child = spans[child_key]
                    child_name = child.get("name", "")
                    if child_name.startswith("store."):
                        store_s += child["duration"]
                    elif child_name == "dedup_replay":
                        store_s += child["duration"]
                        replays += 1
                if srv_node != f.node:
                    # same-node (embedded) pairs share one clock; only true
                    # cross-file pairs constrain an offset
                    pair = bounds.setdefault((f.node, srv_node), _PairBounds())
                    pair.rpcs += 1
                    pair.low = max(pair.low, srv["end"] - span["end"])
                    pair.high = min(pair.high, srv["start"] - span["start"])
            if not matches:
                unmatched += 1
            rows.append(
                RpcRow(
                    op=str(attrs.get("op", span.get("name", "?"))),
                    client_node=f.node,
                    client_span_id=span["span_id"],
                    server_node=server_node,
                    attempts=int(attrs.get("attempts", 1)),
                    server_spans=len(matches),
                    dedup_replays=replays,
                    client_s=span["duration"],
                    backoff_s=backoff,
                    server_s=server_s,
                    store_s=store_s,
                )
            )
    rows.sort(key=lambda r: (r.client_node, r.client_span_id))
    skew = [
        SkewReport(
            client_node=client,
            server_node=server,
            rpcs=pair.rpcs,
            offset_low=pair.low,
            offset_high=pair.high,
        )
        for (client, server), pair in sorted(bounds.items())
    ]
    return rows, unmatched, orphan_servers, skew


def merge_trace_paths(
    paths: List[str], default_nodes: Optional[List[Optional[str]]] = None
) -> MergedTrace:
    """Convenience: load each path and merge (the CLI entry point)."""
    defaults: List[Optional[str]] = list(default_nodes or [])
    defaults += [None] * (len(paths) - len(defaults))
    files = [
        load_trace_path(path, default_node=default)
        for path, default in zip(paths, defaults)
    ]
    return merge_traces(files)


def write_merged(merged: MergedTrace, out: TextIO) -> None:
    out.write(merged.to_json() + "\n")


__all__ = [
    "TraceFile",
    "RpcRow",
    "SkewReport",
    "MergedTrace",
    "load_trace_file",
    "load_trace_path",
    "merge_traces",
    "merge_trace_paths",
    "write_merged",
]

"""Exploration profiling: search-tree attribution per update and per window.

The engine's cumulative :class:`~repro.core.metrics.Metrics` answers "how
much work did the run do"; this module answers **where the exploration time
goes** (paper §6, Figure 6): for every edge update, how large the
exploration tree was, how many candidate expansions the CAN_EXPAND rules
pruned (split by rule — same-window edge ordering vs. update canonicality
rule 2), how many subgraph versions the algorithm's ``filter`` rejected,
and how many matches were emitted (NEW/REM split), together with the
per-level shape of the search tree.

Design constraints, mirroring the telemetry subsystem:

* **One record.**  EXPLORE writes only the engine's
  :class:`~repro.core.metrics.Metrics`.  A profiled task is one
  :meth:`ExplorationProfile.record` call with the
  :meth:`~repro.core.metrics.Metrics.counts` snapshots taken before and
  after it; every field of its :class:`UpdateProfile` is derived from that
  difference and the task's deltas.  An unprofiled task takes no snapshot
  (benchmarked in ``benchmarks/test_telemetry_overhead.py``).
* **Order-independent merge.**  Per-worker profiles are keyed by the
  update they attribute to; :meth:`ExplorationProfile.merge` sums records
  key-wise (addition commutes, ``max_depth`` takes the max), so merging
  worker profiles in any order — threads, shipped process results, or
  simulated workers — yields an identical profile.  All recorded
  quantities are operation *counts*, never clock reads, so the merged
  totals are also identical across execution backends for the same input
  stream (the cross-backend determinism contract).
* **Shipping.**  Profiles travel over the existing process-backend result
  channel (alongside metrics, spans, and the worker registry), so
  :class:`ExplorationProfile` must pickle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro.core.metrics import Metrics
from repro.types import EdgeUpdate, MatchDelta, MatchStatus, Timestamp

#: key attributing one exploration task: (timestamp, u, v, added)
UpdateKey = Tuple[Timestamp, int, int, bool]

#: integer fields of :class:`UpdateProfile` summed by merge / aggregation
_SUM_FIELDS = (
    "nodes",
    "attempts",
    "pruned_same_window",
    "pruned_rule2",
    "expansions",
    "filter_calls",
    "filter_rejected",
    "match_calls",
    "match_rejected",
    "new",
    "rem",
)


@dataclass
class UpdateProfile:
    """Search-tree statistics attributed to one edge update's task.

    ``nodes`` counts subgraph states examined by DETECT_CHANGES;
    ``attempts`` counts candidate expansions considered by CAN_EXPAND;
    ``depth_nodes[k]`` is the number of examined states of size ``k``.
    """

    ts: Timestamp
    u: int
    v: int
    added: bool
    nodes: int = 0
    attempts: int = 0
    pruned_same_window: int = 0
    pruned_rule2: int = 0
    expansions: int = 0
    filter_calls: int = 0
    filter_rejected: int = 0
    match_calls: int = 0
    match_rejected: int = 0
    new: int = 0
    rem: int = 0
    max_depth: int = 0
    depth_nodes: List[int] = field(default_factory=list)

    @property
    def key(self) -> UpdateKey:
        return (self.ts, self.u, self.v, self.added)

    @property
    def pruned(self) -> int:
        """Total canonicality-pruned expansions (both CAN_EXPAND rules)."""
        return self.pruned_same_window + self.pruned_rule2

    @property
    def cost(self) -> float:
        """Deterministic price of this task: :meth:`Metrics.work_units`."""
        return Metrics(
            filter_calls=self.filter_calls,
            match_calls=self.match_calls,
            can_expand_calls=self.attempts,
            expansions=self.expansions,
            emits=self.new + self.rem,
        ).work_units()

    def absorb(self, other: "UpdateProfile") -> None:
        """Accumulate another record for the same update (merge helper)."""
        for attr in _SUM_FIELDS:
            setattr(self, attr, getattr(self, attr) + getattr(other, attr))
        if other.max_depth > self.max_depth:
            self.max_depth = other.max_depth
        while len(self.depth_nodes) < len(other.depth_nodes):
            self.depth_nodes.append(0)
        for i, n in enumerate(other.depth_nodes):
            self.depth_nodes[i] += n

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "ts": self.ts,
            "u": self.u,
            "v": self.v,
            "added": self.added,
            "max_depth": self.max_depth,
            "depth_nodes": list(self.depth_nodes),
            "cost": self.cost,
        }
        for attr in _SUM_FIELDS:
            doc[attr] = getattr(self, attr)
        return doc

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "UpdateProfile":
        record = cls(
            ts=doc["ts"], u=doc["u"], v=doc["v"], added=bool(doc["added"])
        )
        for attr in _SUM_FIELDS:
            setattr(record, attr, int(doc.get(attr, 0)))
        record.max_depth = int(doc.get("max_depth", 0))
        record.depth_nodes = [int(n) for n in doc.get("depth_nodes", ())]
        return record


class ExplorationProfile:
    """Accumulates per-update search-tree statistics; merges key-wise.

    One instance is held per worker (no shared soft state); the session
    merges worker profiles at collection time.
    """

    def __init__(self) -> None:
        self._updates: Dict[UpdateKey, UpdateProfile] = {}

    def record(
        self,
        ts: Timestamp,
        update: EdgeUpdate,
        before: Tuple[int, ...],
        after: Tuple[int, ...],
        deltas: Sequence[MatchDelta],
        vertex_induced: bool,
    ) -> None:
        """Attribute one task to its update: ``after - before`` of
        :meth:`Metrics.counts`, and the deltas it emitted."""
        if len(before) < len(after):  # the task reached a new depth
            before += (0,) * (len(after) - len(before))
        (
            filter_calls,
            filter_passes,
            match_calls,
            attempts,
            expansions,
            emits,
            rule2,
            edges_excluded,
            *depths,
        ) = [a - b for a, b in zip(after, before)]
        key = (ts, update.u, update.v, update.added)
        record = self._updates.get(key)
        if record is None:
            record = self._updates[key] = UpdateProfile(
                ts=ts, u=update.u, v=update.v, added=update.added
            )
        rem = 0
        for delta in deltas:
            if delta.status is MatchStatus.REM:
                rem += 1
        record.nodes += 1 + expansions
        record.attempts += attempts
        record.pruned_rule2 += rule2
        record.pruned_same_window += (
            attempts - expansions - rule2 if vertex_induced else edges_excluded
        )
        record.expansions += expansions
        record.filter_calls += filter_calls
        record.filter_rejected += filter_calls - filter_passes
        record.match_calls += match_calls
        record.match_rejected += match_calls - emits
        record.new += len(deltas) - rem
        record.rem += rem
        # the root is one 2-vertex node; expansions build the deeper ones
        shape = [0, 0, 1] + depths[3:]
        while len(shape) > 3 and not shape[-1]:
            shape.pop()
        record.max_depth = max(record.max_depth, len(shape) - 1)
        depth_nodes = record.depth_nodes
        depth_nodes.extend([0] * (len(shape) - len(depth_nodes)))
        for depth, n in enumerate(shape):
            depth_nodes[depth] += n

    # -- merge / introspection --------------------------------------------

    def merge(self, other: "ExplorationProfile") -> None:
        """Accumulate another worker's profile (commutative, associative)."""
        for key, theirs in other.update_records().items():
            mine = self._updates.get(key)
            if mine is None:
                mine = self._updates[key] = UpdateProfile(
                    ts=theirs.ts, u=theirs.u, v=theirs.v, added=theirs.added
                )
            mine.absorb(theirs)

    def update_records(self) -> Dict[UpdateKey, UpdateProfile]:
        return self._updates

    def updates(self) -> List[UpdateProfile]:
        """Per-update records in deterministic (timestamp, edge) order."""
        return [self._updates[key] for key in sorted(self._updates)]

    def num_updates(self) -> int:
        return len(self._updates)

    def totals(self) -> Dict[str, Any]:
        """Whole-run aggregate of every counter plus depth shape."""
        out: Dict[str, Any] = {attr: 0 for attr in _SUM_FIELDS}
        max_depth = 0
        depth_nodes: List[int] = []
        cost = 0.0
        for record in self._updates.values():
            for attr in _SUM_FIELDS:
                out[attr] += getattr(record, attr)
            if record.max_depth > max_depth:
                max_depth = record.max_depth
            while len(depth_nodes) < len(record.depth_nodes):
                depth_nodes.append(0)
            for i, n in enumerate(record.depth_nodes):
                depth_nodes[i] += n
            cost += record.cost
        out["pruned"] = out["pruned_same_window"] + out["pruned_rule2"]
        out["updates"] = len(self._updates)
        out["max_depth"] = max_depth
        out["depth_nodes"] = depth_nodes
        out["cost"] = cost
        return out

    def window_rows(self) -> List[Dict[str, Any]]:
        """Per-window aggregates (one row per timestamp, ascending)."""
        by_ts: Dict[Timestamp, List[UpdateProfile]] = {}
        for record in self._updates.values():
            by_ts.setdefault(record.ts, []).append(record)
        rows: List[Dict[str, Any]] = []
        for ts in sorted(by_ts):
            records = by_ts[ts]
            row: Dict[str, Any] = {"ts": ts, "tasks": len(records)}
            for attr in _SUM_FIELDS:
                row[attr] = sum(getattr(r, attr) for r in records)
            row["pruned"] = row["pruned_same_window"] + row["pruned_rule2"]
            row["max_depth"] = max(r.max_depth for r in records)
            costs = [r.cost for r in records]
            row["cost"] = sum(costs)
            row["max_task_cost"] = max(costs)
            mean = sum(costs) / len(costs)
            # max/mean per-task cost: 1.0 = perfectly balanced window.
            row["imbalance"] = (max(costs) / mean) if mean > 0 else 1.0
            rows.append(row)
        return rows

    def top_updates(self, k: int = 5) -> List[UpdateProfile]:
        """The ``k`` most expensive updates (work units), deterministic.

        Ties break on the update key, so the selection is independent of
        merge and insertion order.
        """
        ranked = sorted(
            self._updates.values(), key=lambda r: (-r.cost, r.key)
        )
        return ranked[: max(k, 0)]

    # -- (de)serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "updates": [r.to_dict() for r in self.updates()],
            "windows": self.window_rows(),
            "totals": self.totals(),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "ExplorationProfile":
        profile = cls()
        for entry in doc.get("updates", ()):
            record = UpdateProfile.from_dict(entry)
            profile._updates[record.key] = record
        return profile

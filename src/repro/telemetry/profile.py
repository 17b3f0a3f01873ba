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
  after it, which adds that difference (and the task's delta counts) into
  one flat int vector per update key.  Every field of an
  :class:`UpdateProfile` is derived from its key's vector, when a reader
  asks for the rows.  An unprofiled task takes no snapshot (benchmarked
  in ``benchmarks/test_telemetry_overhead.py``).
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
from operator import add, sub
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


def _vector_row(
    key: UpdateKey, vector: List[int], vertex_induced: bool
) -> UpdateProfile:
    """The :class:`UpdateProfile` of one accumulated task vector (see
    :meth:`ExplorationProfile.record` for its layout)."""
    (
        tasks,
        deltas,
        rem,
        filter_calls,
        filter_passes,
        match_calls,
        attempts,
        expansions,
        emits,
        rule2,
        edges_excluded,
        *depths,
    ) = vector
    # each task's root is one 2-vertex node; expansions build the deeper ones
    shape = [0, 0, tasks] + depths[3:]
    while len(shape) > 3 and not shape[-1]:
        shape.pop()
    ts, u, v, added = key
    return UpdateProfile(
        ts=ts,
        u=u,
        v=v,
        added=added,
        nodes=tasks + expansions,
        attempts=attempts,
        pruned_same_window=(
            attempts - expansions - rule2 if vertex_induced else edges_excluded
        ),
        pruned_rule2=rule2,
        expansions=expansions,
        filter_calls=filter_calls,
        filter_rejected=filter_calls - filter_passes,
        match_calls=match_calls,
        match_rejected=match_calls - emits,
        new=deltas - rem,
        rem=rem,
        max_depth=len(shape) - 1,
        depth_nodes=shape,
    )


class ExplorationProfile:
    """Accumulates per-update search-tree statistics; merges key-wise.

    One instance is held per worker (no shared soft state); the session
    merges worker profiles at collection time.  A recorded task only adds
    into a flat int vector per update key; the :class:`UpdateProfile`
    rows are built from those vectors when something reads them.
    """

    def __init__(self) -> None:
        self._updates: Dict[UpdateKey, UpdateProfile] = {}
        # Task vectors not yet folded into ``_updates``, one dict per
        # CAN_EXPAND mode (indexed by ``vertex_induced``): the two modes
        # derive ``pruned_same_window`` from different counters.
        self._vectors: Tuple[Dict[UpdateKey, List[int]], ...] = ({}, {})

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
        :meth:`Metrics.counts`, and the deltas it emitted.

        The task becomes the vector ``[1, deltas, rem, *(after - before)]``
        — one task, its delta count, its REM count, then the counter
        differences — and is added element-wise into its key's vector.
        """
        if len(before) < len(after):  # the task reached a new depth
            before += (0,) * (len(after) - len(before))
        rem = 0
        for delta in deltas:
            if delta.status is MatchStatus.REM:
                rem += 1
        task = [1, len(deltas), rem, *map(sub, after, before)]
        vector = self._vectors[vertex_induced].setdefault(
            (ts, update.u, update.v, update.added), task
        )
        if vector is not task:  # the key ran before: a redelivered update
            vector.extend([0] * (len(task) - len(vector)))
            vector[: len(task)] = map(add, vector, task)

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
        """Per-update records by key, with every recorded task folded in."""
        updates = self._updates
        for vertex_induced, vectors in enumerate(self._vectors):
            for key, vector in vectors.items():
                row = _vector_row(key, vector, bool(vertex_induced))
                mine = updates.get(key)
                if mine is None:
                    updates[key] = row
                else:
                    mine.absorb(row)
            vectors.clear()
        return updates

    def updates(self) -> List[UpdateProfile]:
        """Per-update records in deterministic (timestamp, edge) order."""
        updates = self.update_records()
        return [updates[key] for key in sorted(updates)]

    def num_updates(self) -> int:
        return len(self.update_records())

    def totals(self) -> Dict[str, Any]:
        """Whole-run aggregate of every counter plus depth shape."""
        out: Dict[str, Any] = {attr: 0 for attr in _SUM_FIELDS}
        max_depth = 0
        depth_nodes: List[int] = []
        cost = 0.0
        for record in self.update_records().values():
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
        out["updates"] = len(self.update_records())
        out["max_depth"] = max_depth
        out["depth_nodes"] = depth_nodes
        out["cost"] = cost
        return out

    def window_rows(self) -> List[Dict[str, Any]]:
        """Per-window aggregates (one row per timestamp, ascending)."""
        by_ts: Dict[Timestamp, List[UpdateProfile]] = {}
        for record in self.update_records().values():
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
            self.update_records().values(), key=lambda r: (-r.cost, r.key)
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

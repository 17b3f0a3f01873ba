"""Run reports: join profile + window stats into one "explain" summary.

A :class:`RunReport` answers the questions the paper's evaluation asks of
a run (§6, Figure 6): where did the latency tail sit (p50/p95/p99 over
window wall times), how skewed was the exploration load (the *imbalance
index* — max/mean per-task work-unit cost within a window, 1.0 meaning a
perfectly balanced window), how effective was pruning (canonicality-pruned
and filter-rejected ratios), and which updates were hottest.

Reports build from a collected :class:`~repro.telemetry.profile.\
ExplorationProfile` plus the session's :class:`~repro.types.WindowStats`
list, or from a previously exported profile document (``mine
--profile-out``, re-rendered by the ``repro report`` subcommand).  All
profile-derived fields are deterministic counts; only the latency summary
carries wall-clock measurements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.runtime.stats import LatencySummary, summarize_latencies
from repro.telemetry.profile import ExplorationProfile

#: schema tag written into exported profile documents
PROFILE_SCHEMA = "repro.profile/1"


def profile_document(
    profile: ExplorationProfile,
    window_stats: Sequence[Any] = (),
    meta: Optional[Dict[str, Any]] = None,
    store_stats: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """The JSON document ``mine --profile-out`` writes.

    Bundles the profile with the session's per-window stats (and optional
    run metadata and store stats) so a report can be rendered later from
    the file alone.
    """
    doc = profile.to_dict()
    doc["schema"] = PROFILE_SCHEMA
    doc["meta"] = dict(meta or {})
    doc["store"] = dict(store_stats or {})
    doc["window_stats"] = [
        {
            "timestamp": w.timestamp,
            "num_updates": w.num_updates,
            "num_new": w.num_new,
            "num_rem": w.num_rem,
            "wall_seconds": w.wall_seconds,
        }
        for w in window_stats
    ]
    return doc


@dataclass
class RunReport:
    """One run's explain summary; renders as text or a stable JSON doc."""

    meta: Dict[str, Any] = field(default_factory=dict)
    latency: LatencySummary = field(
        default_factory=lambda: summarize_latencies([])
    )
    totals: Dict[str, Any] = field(default_factory=dict)
    windows: List[Dict[str, Any]] = field(default_factory=list)
    top_updates: List[Dict[str, Any]] = field(default_factory=list)
    #: store_stats snapshot (delta-index size, access skew, held copies)
    store: Dict[str, Any] = field(default_factory=dict)

    # -- derived indices ---------------------------------------------------

    @property
    def imbalance_index(self) -> float:
        """Worst-window max/mean per-task cost (1.0 = balanced)."""
        if not self.windows:
            return 1.0
        return max(row["imbalance"] for row in self.windows)

    @property
    def mean_imbalance(self) -> float:
        if not self.windows:
            return 1.0
        return sum(row["imbalance"] for row in self.windows) / len(self.windows)

    @property
    def pruning_ratio(self) -> float:
        """Fraction of CAN_EXPAND attempts pruned by canonicality."""
        attempts = self.totals.get("attempts", 0)
        return self.totals.get("pruned", 0) / attempts if attempts else 0.0

    @property
    def filter_reject_ratio(self) -> float:
        calls = self.totals.get("filter_calls", 0)
        return self.totals.get("filter_rejected", 0) / calls if calls else 0.0

    # -- rendering ---------------------------------------------------------

    def to_json(self) -> Dict[str, Any]:
        return {
            "meta": dict(self.meta),
            "latency": {
                "windows": self.latency.windows,
                "p50_seconds": self.latency.p50_seconds,
                "p95_seconds": self.latency.p95_seconds,
                "p99_seconds": self.latency.p99_seconds,
                "max_seconds": self.latency.max_seconds,
                "total_seconds": self.latency.total_seconds,
            },
            "totals": dict(self.totals),
            "windows": [dict(row) for row in self.windows],
            "imbalance_index": self.imbalance_index,
            "mean_imbalance": self.mean_imbalance,
            "pruning_ratio": self.pruning_ratio,
            "filter_reject_ratio": self.filter_reject_ratio,
            "top_updates": [dict(entry) for entry in self.top_updates],
            "store": dict(self.store),
        }

    def dump_json(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"

    def render(self) -> str:
        """Multi-line human-readable report."""
        totals = self.totals
        lines = ["run report"]
        for key in sorted(self.meta):
            lines.append(f"  {key:<11}{self.meta[key]}")
        lines.append(f"  latency    {self.latency.report()}")
        if not totals.get("updates"):
            lines.append("  profiling was disabled; no exploration attribution")
            return "\n".join(lines)
        lines.append(
            f"  explored   {totals['nodes']} states over "
            f"{totals['updates']} updates, max depth {totals['max_depth']} "
            f"(per-level {totals['depth_nodes'][2:]})"
        )
        lines.append(
            f"  expansion  {totals['attempts']} attempts, "
            f"{totals['expansions']} expanded"
        )
        lines.append(
            f"  pruning    {totals['pruned']} canonicality-pruned "
            f"({totals['pruned_same_window']} same-window, "
            f"{totals['pruned_rule2']} rule-2) = "
            f"{self.pruning_ratio:.1%} of attempts"
        )
        lines.append(
            f"  filter     {totals['filter_calls']} calls, "
            f"{totals['filter_rejected']} rejected "
            f"({self.filter_reject_ratio:.1%})"
        )
        lines.append(
            f"  match      {totals['match_calls']} calls, "
            f"{totals['new']} NEW / {totals['rem']} REM emitted"
        )
        lines.append(
            f"  imbalance  worst {self.imbalance_index:.2f}x, "
            f"mean {self.mean_imbalance:.2f}x over {len(self.windows)} windows"
        )
        if self.store:
            lines.append(
                f"  shard skew {self.store.get('access_imbalance', 1.0):.2f}x "
                f"fetch imbalance over {self.store.get('num_shards', '?')} "
                f"shards ({self.store.get('access_total', 0)} fetches)"
            )
            held = ""
            if "client_cache_entries" in self.store:
                held = (
                    f"held copies {self.store['cache_hits']} hits / "
                    f"{self.store['cache_misses']} misses "
                    f"({self.store['cache_hit_ratio']:.1%}), "
                )
            lines.append(
                f"  store      {self.store.get('kind', '?')}: "
                f"{held}{self.store.get('delta_entries', 0)} delta facts"
            )
        if self.windows:
            lines.append("  windows    ts    tasks  cost      max-task  imbalance")
            for row in self.windows:
                lines.append(
                    f"             {row['ts']:<6}{row['tasks']:<7}"
                    f"{row['cost']:<10.1f}{row['max_task_cost']:<10.1f}"
                    f"{row['imbalance']:.2f}x"
                )
        if self.top_updates:
            lines.append("  hottest updates (by work units):")
            for entry in self.top_updates:
                sign = "+" if entry["added"] else "-"
                lines.append(
                    f"    ts={entry['ts']} {sign}({entry['u']},{entry['v']}) "
                    f"cost {entry['cost']:.1f}, {entry['nodes']} states, "
                    f"{entry['pruned']} pruned, "
                    f"{entry['new'] + entry['rem']} deltas"
                )
        return "\n".join(lines)


def build_report(
    profile: ExplorationProfile,
    window_stats: Sequence[Any] = (),
    meta: Optional[Dict[str, Any]] = None,
    store_stats: Optional[Dict[str, Any]] = None,
    top_k: int = 5,
) -> RunReport:
    """Assemble a :class:`RunReport` from live session state."""
    wall = [w.wall_seconds for w in window_stats]
    top = []
    for record in profile.top_updates(top_k):
        entry = record.to_dict()
        entry["pruned"] = record.pruned
        top.append(entry)
    return RunReport(
        meta=dict(meta or {}),
        latency=summarize_latencies(wall),
        totals=profile.totals(),
        windows=profile.window_rows(),
        top_updates=top,
        store=dict(store_stats or {}),
    )


def report_from_document(doc: Dict[str, Any], top_k: int = 5) -> RunReport:
    """Rebuild a report from a ``mine --profile-out`` JSON document."""
    schema = doc.get("schema")
    if schema != PROFILE_SCHEMA:
        raise ValueError(
            f"not a profile document (schema {schema!r}; "
            f"expected {PROFILE_SCHEMA!r})"
        )

    class _Window:
        __slots__ = ("timestamp", "num_updates", "num_new", "num_rem", "wall_seconds")

        def __init__(self, entry: Dict[str, Any]) -> None:
            self.timestamp = entry.get("timestamp", 0)
            self.num_updates = entry.get("num_updates", 0)
            self.num_new = entry.get("num_new", 0)
            self.num_rem = entry.get("num_rem", 0)
            self.wall_seconds = entry.get("wall_seconds", 0.0)

    profile = ExplorationProfile.from_dict(doc)
    window_stats = [_Window(entry) for entry in doc.get("window_stats", ())]
    return build_report(
        profile,
        window_stats,
        meta=doc.get("meta") or {},
        store_stats=doc.get("store") or {},
        top_k=top_k,
    )


def load_report(path: str, top_k: int = 5) -> RunReport:
    """Read a profile JSON file and build its report."""
    with open(path) as fh:
        doc = json.load(fh)
    return report_from_document(doc, top_k=top_k)

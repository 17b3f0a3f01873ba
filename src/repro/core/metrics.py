"""Operation counters and timers for the mining engine.

The paper's Figure 6 breaks runtime down into ``match``, ``filter``,
``CAN_EXPAND``, and ``other``; this module records exactly those categories,
plus the raw counters the cluster simulator uses as task work units.  It is
the one record EXPLORE writes: what one task did is :meth:`Metrics.counts`
after the task minus the same snapshot before it (see
:meth:`~repro.telemetry.profile.ExplorationProfile.record`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Metrics:
    """Counts and cumulative seconds per engine operation."""

    filter_calls: int = 0
    match_calls: int = 0
    can_expand_calls: int = 0
    expansions: int = 0
    emits: int = 0
    explore_calls: int = 0

    #: ``filter`` calls that kept their subgraph
    filter_passes: int = 0
    #: candidates CAN_EXPAND rejected by update canonicality rule 2 (§4.4.1)
    pruned_rule2: int = 0
    #: connecting edges an edge-induced CAN_EXPAND excluded by same-window
    #: ordering (§4.4.3); a vertex-induced one prunes
    #: ``can_expand_calls - expansions - pruned_rule2`` candidates that way
    edges_excluded: int = 0
    #: ``depth_expansions[k]``: expansions that built a ``k``-vertex subgraph
    depth_expansions: List[int] = field(default_factory=list)

    filter_seconds: float = 0.0
    match_seconds: float = 0.0
    can_expand_seconds: float = 0.0

    timing_enabled: bool = False

    def reset(self) -> None:
        snapshot = Metrics(timing_enabled=self.timing_enabled)
        self.__dict__.update(snapshot.__dict__)

    # -- work accounting ---------------------------------------------------

    def work_units(self) -> float:
        """Abstract CPU cost of the recorded operations.

        Used as the task cost by the cluster simulator; weights roughly
        reflect the relative expense of each operation in the engine.
        """
        return (
            1.0 * self.can_expand_calls
            + 2.0 * self.filter_calls
            + 2.0 * self.match_calls
            + 3.0 * self.expansions
            + 1.0 * self.emits
        )

    def merge(self, other: "Metrics") -> None:
        """Accumulate another worker's counters and timers into this one."""
        self.filter_calls += other.filter_calls
        self.match_calls += other.match_calls
        self.can_expand_calls += other.can_expand_calls
        self.expansions += other.expansions
        self.emits += other.emits
        self.explore_calls += other.explore_calls
        self.filter_passes += other.filter_passes
        self.pruned_rule2 += other.pruned_rule2
        self.edges_excluded += other.edges_excluded
        mine = self.depth_expansions
        mine.extend([0] * (len(other.depth_expansions) - len(mine)))
        for depth, n in enumerate(other.depth_expansions):
            mine[depth] += n
        self.filter_seconds += other.filter_seconds
        self.match_seconds += other.match_seconds
        self.can_expand_seconds += other.can_expand_seconds

    def breakdown(self, wall_seconds: float) -> Dict[str, float]:
        """The Figure 6 decomposition of ``wall_seconds``: match / filter /
        CAN_EXPAND / other."""
        accounted = self.filter_seconds + self.match_seconds + self.can_expand_seconds
        return {
            "match": self.match_seconds,
            "filter": self.filter_seconds,
            "can_expand": self.can_expand_seconds,
            "other": max(wall_seconds - accounted, 0.0),
        }

    def counts(self) -> Tuple[int, ...]:
        """Every counter one task moves, flat: ``filter_calls``,
        ``filter_passes``, ``match_calls``, ``can_expand_calls``,
        ``expansions``, ``emits``, ``pruned_rule2``, ``edges_excluded``,
        then ``depth_expansions``."""
        return (
            self.filter_calls,
            self.filter_passes,
            self.match_calls,
            self.can_expand_calls,
            self.expansions,
            self.emits,
            self.pruned_rule2,
            self.edges_excluded,
            *self.depth_expansions,
        )

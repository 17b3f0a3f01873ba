"""Operation counters for the mining engine, and a timer beside them.

:class:`Metrics` counts the paper's Figure 6 categories (``match``,
``filter``, ``CAN_EXPAND``) plus the raw counters the simulated cluster uses
as task work units.  It is the one record EXPLORE writes: what one task did
is :meth:`Metrics.counts` after the task minus the same snapshot before it
(see :meth:`~repro.telemetry.profile.ExplorationProfile.record`).

Figure 6's runtime split comes from :class:`OperationTimer`, which wraps an
explorer's operations from the outside: the explorer itself reads no clock.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class Metrics:
    """Counts per engine operation."""

    #: ``filter`` verdicts, including the children a vertex-induced
    #: explorer rejected on their row (``MiningAlgorithm.required_row``)
    #: without calling ``filter``: each counts as a call that rejected, so
    #: the count is the same with and without the veto
    filter_calls: int = 0
    match_calls: int = 0
    can_expand_calls: int = 0
    expansions: int = 0
    emits: int = 0
    explore_calls: int = 0

    #: ``filter`` calls that kept their subgraph (a veto never does)
    filter_passes: int = 0
    #: candidates CAN_EXPAND rejected by update canonicality rule 2 (§4.4.1)
    pruned_rule2: int = 0
    #: connecting edges an edge-induced CAN_EXPAND excluded by same-window
    #: ordering (§4.4.3); a vertex-induced one prunes
    #: ``can_expand_calls - expansions - pruned_rule2`` candidates that way
    edges_excluded: int = 0
    #: ``depth_expansions[k]``: expansions that built a ``k``-vertex subgraph
    depth_expansions: List[int] = field(default_factory=list)

    # -- work accounting ---------------------------------------------------

    def work_units(self) -> float:
        """Abstract CPU cost of the recorded operations.

        Used as the task cost by the simulated cluster; weights roughly
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
        """Accumulate another worker's counters into this one."""
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


class OperationTimer:
    """Cumulative seconds an :class:`~repro.core.explore.Explorer` spends in
    ``filter``, ``match`` and CAN_EXPAND: the measured half of Figure 6.

    :meth:`attach` swaps the explorer's algorithm for a proxy whose
    ``filter`` and ``match`` time the real call, and wraps the explorer's
    two CAN_EXPAND callables the same way; the explorer runs its one path
    and never knows.  What a wrapper costs beyond the timed call lands in
    ``other``.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = dict.fromkeys(
            ("match", "filter", "can_expand"), 0.0
        )

    def attach(self, explorer) -> "OperationTimer":
        explorer.algorithm = _TimedOperations(explorer.algorithm, self)
        explorer.vertex_expansion_reason = self._timed(
            "can_expand", explorer.vertex_expansion_reason
        )
        explorer.edge_expansion_pool_ex = self._timed(
            "can_expand", explorer.edge_expansion_pool_ex
        )
        return self

    def _timed(self, category: str, fn):
        seconds = self.seconds
        clock = time.perf_counter

        def timed(*args):
            start = clock()
            result = fn(*args)
            seconds[category] += clock() - start
            return result

        return timed

    def breakdown(self, wall_seconds: float) -> Dict[str, float]:
        """The Figure 6 decomposition of ``wall_seconds``: match / filter /
        CAN_EXPAND / other."""
        other = max(wall_seconds - sum(self.seconds.values()), 0.0)
        return {**self.seconds, "other": other}


class _TimedOperations:
    """A mining algorithm whose ``filter`` and ``match`` are timed; every
    other attribute is the wrapped algorithm's."""

    def __init__(self, inner, timer: OperationTimer) -> None:
        self._inner = inner
        self.filter = timer._timed("filter", inner.filter)
        self.match = timer._timed("match", inner.match)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

"""Shard placement and access accounting for the graph store.

The paper's store is "sharded across all cluster nodes where workers are
executing. Each worker has read-only access to any part of the graph"
(section 4.1).  We reproduce the placement function and the accounting the
simulated cluster uses to charge remote-fetch costs; the data itself lives
in one process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.types import VertexId


@dataclass
class ShardMap:
    """Deterministic hash placement of vertex records onto shards."""

    num_shards: int = 8

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be positive")

    def shard_of(self, v: VertexId) -> int:
        # Multiplicative hash keeps consecutive ids from landing on one shard.
        return (v * 2654435761 & 0xFFFFFFFF) % self.num_shards


@dataclass
class AccessStats:
    """Counts of vertex-record fetches, per shard and total."""

    per_shard: Dict[int, int] = field(default_factory=dict)
    total: int = 0
    #: shard count of the owning store; when set, untouched shards count
    #: as zero-load in :meth:`imbalance` instead of being ignored
    num_shards: Optional[int] = None

    def record(self, shard: int) -> None:
        self.per_shard[shard] = self.per_shard.get(shard, 0) + 1
        self.total += 1

    def imbalance(self) -> float:
        """Max/mean shard load ratio (1.0 = perfectly balanced).

        The mean is taken over *all* shards when ``num_shards`` is known —
        a fetch pattern that touches only one of eight shards is maximally
        skewed, not perfectly balanced.  Without a shard count (legacy
        construction) only touched shards enter the mean.
        """
        if not self.per_shard:
            return 1.0
        loads: List[int] = list(self.per_shard.values())
        denominator = self.num_shards if self.num_shards else len(loads)
        mean = sum(loads) / denominator
        return max(loads) / mean if mean else 1.0

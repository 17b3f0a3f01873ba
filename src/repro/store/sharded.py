"""Physically sharded record store: one record map per shard.

The paper's store "is sharded but fully accessible to all workers"
(§4.1).  The flat :class:`~repro.store.mvstore.MultiVersionStore` only
*accounts* shard placement (every record lives in one dict and
``AccessStats`` attributes reads to shards after the fact);
:class:`ShardedStore` makes the placement physical — each shard owns its
own ``{vertex: record}`` map and every record operation routes through
:meth:`~repro.store.shard.ShardMap.shard_of` — which is the layout a
per-shard serving process would hold in the distributed deployment.

Mining output is unaffected by the partitioning: records themselves are
identical to the flat store's, and iteration order (shard 0..N-1, each in
insertion order) only changes traversal order of whole-store scans, which
every consumer sorts or reduces order-insensitively.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.store.mvstore import BaseRecordStore, VertexRecord
from repro.types import VertexId


class ShardedStore(BaseRecordStore):
    """Multiversioned graph store partitioned into per-shard record maps."""

    kind = "sharded"

    def __init__(self, num_shards: int = 8, delta_index: bool = True) -> None:
        super().__init__(num_shards=num_shards, delta_index=delta_index)
        self._shard_records: List[Dict[VertexId, VertexRecord]] = [
            {} for _ in range(num_shards)
        ]

    def _shard_map_of(self, v: VertexId) -> Dict[VertexId, VertexRecord]:
        return self._shard_records[self.shards.shard_of(v)]

    def _get_rec(self, v: VertexId) -> Optional[VertexRecord]:
        return self._shard_map_of(v).get(v)

    def _ensure_record(self, v: VertexId) -> VertexRecord:
        shard = self._shard_map_of(v)
        rec = shard.get(v)
        if rec is None:
            rec = VertexRecord()
            shard[v] = rec
        return rec

    def _put_rec(self, v: VertexId, record: VertexRecord) -> None:
        self._shard_map_of(v)[v] = record

    def _iter_items(self) -> Iterator[Tuple[VertexId, VertexRecord]]:
        for shard in self._shard_records:
            yield from shard.items()

    def _keys(self) -> Iterator[VertexId]:
        for shard in self._shard_records:
            yield from shard

    def _contains(self, v: VertexId) -> bool:
        return v in self._shard_map_of(v)

    def _len(self) -> int:
        return sum(len(shard) for shard in self._shard_records)

    def shard_sizes(self) -> List[int]:
        """Record count per shard (placement skew introspection)."""
        return [len(shard) for shard in self._shard_records]

    def store_stats(self) -> Dict[str, object]:
        stats = super().store_stats()
        sizes = self.shard_sizes()
        stats["shard_max_records"] = max(sizes) if sizes else 0
        stats["shard_min_records"] = min(sizes) if sizes else 0
        return stats

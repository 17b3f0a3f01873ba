"""Sharded, multiversioned graph store (paper sections 4.1, 5.2).

Every store kind implements the :class:`~repro.store.api.GraphStore`
protocol; construct one by name with :func:`~repro.store.api.make_store`
(``"mv"``, ``"sharded"``, ``"remote"`` or ``"net"``).  Every kind
also declares the read-only :data:`~repro.store.api.CAPABILITY_FACTS`.
"""

from repro.store.api import (
    CAPABILITY_FACTS,
    GraphStore,
    ReclaimStats,
    STORE_NAMES,
    capability_facts,
    make_store,
)
from repro.store.cache import DEFAULT_CACHE_CAPACITY, NeighborCache
from repro.store.checkpoint import checkpoint_store, restore_store
from repro.store.delta import DeltaIndex
from repro.store.gc import collect_garbage, collect_garbage_stats
from repro.store.mvstore import EdgeInterval, MultiVersionStore, VertexRecord
from repro.store.remote import FetchCosts, RemoteStoreClient
from repro.store.shard import AccessStats, ShardMap
from repro.store.sharded import ShardedStore
from repro.store.snapshot import ExplorationView, SnapshotView

__all__ = [
    "GraphStore",
    "ReclaimStats",
    "STORE_NAMES",
    "make_store",
    "CAPABILITY_FACTS",
    "capability_facts",
    "EdgeInterval",
    "MultiVersionStore",
    "ShardedStore",
    "VertexRecord",
    "ShardMap",
    "AccessStats",
    "NeighborCache",
    "DEFAULT_CACHE_CAPACITY",
    "DeltaIndex",
    "SnapshotView",
    "ExplorationView",
    "collect_garbage",
    "collect_garbage_stats",
    "checkpoint_store",
    "restore_store",
    "FetchCosts",
    "RemoteStoreClient",
]

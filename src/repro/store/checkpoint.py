"""Checkpointing and recovery of the multiversioned store (paper §5.5).

"The graph store is replicated and sharded on worker machines and can be
recovered in case of failures."  We reproduce the recovery contract with a
JSON checkpoint: :func:`checkpoint_store` serializes the full record set
(edge version intervals, label histories, latest timestamp) and
:func:`restore_store` rebuilds an identical store.  Combined with the
durable work queue's log, a crashed deployment recovers to exactly-once
output: restore the last checkpoint, then replay queued updates whose
timestamps exceed the checkpoint's.

Serialization speaks only the :class:`~repro.store.api.GraphStore`
protocol (``iter_records`` / ``put_record``), so any store kind can be
checkpointed; the checkpoint records the kind and restore rebuilds the
same one (checkpoints predating the ``kind`` key restore as ``mv``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.errors import GraphStoreError
from repro.store.api import GraphStore, make_store
from repro.store.mvstore import EdgeInterval, VertexRecord

PathLike = Union[str, Path]

FORMAT_VERSION = 1


def store_to_dict(store: GraphStore) -> dict:
    """Serializable snapshot of the complete store state."""
    records = {}
    for v, rec in store.iter_records():
        edges = {
            str(dst): [
                [iv.added_ts, iv.deleted_ts, iv.label, iv.direction]
                for iv in versions
            ]
            for dst, versions in rec.edges.items()
        }
        records[str(v)] = {
            "labels": [[ts, label] for ts, label in rec.label_history],
            "edges": edges,
        }
    return {
        "format": FORMAT_VERSION,
        "kind": store.kind,
        "latest_ts": store.latest_timestamp,
        "num_shards": store.shards.num_shards,
        "records": records,
    }


def store_from_dict(data: dict) -> GraphStore:
    """Rebuild a store from :func:`store_to_dict` output."""
    if data.get("format") != FORMAT_VERSION:
        raise GraphStoreError(
            f"unsupported checkpoint format {data.get('format')!r}"
        )
    store = make_store(data.get("kind", "mv"), num_shards=data["num_shards"])
    # Edge intervals are shared between both endpoints' records, as
    # ``add_edge`` shares them: rebuild each undirected edge's intervals
    # once and give each side its own list of them.  One list on both
    # sides would take every later write of the edge twice.
    built = {}
    restored = {}
    for v_str, rec_data in data["records"].items():
        v = int(v_str)
        restored[v] = VertexRecord(
            label_history=[(ts, label) for ts, label in rec_data["labels"]]
        )
    for v_str, rec_data in data["records"].items():
        v = int(v_str)
        for dst_str, versions in rec_data["edges"].items():
            dst = int(dst_str)
            key = (v, dst) if v < dst else (dst, v)
            if key not in built:
                built[key] = [
                    EdgeInterval(
                        added_ts=entry[0],
                        deleted_ts=entry[1],
                        label=entry[2],
                        direction=entry[3] if len(entry) > 3 else None,
                    )
                    for entry in versions
                ]
            restored[v].edges[dst] = list(built[key])
    for v_str in data["records"]:
        v = int(v_str)
        store.put_record(v, restored[v])
    store.set_latest_timestamp(data["latest_ts"])
    return store


def checkpoint_store(store: GraphStore, path: PathLike) -> None:
    """Write a durable checkpoint of the store to ``path``."""
    Path(path).write_text(json.dumps(store_to_dict(store)))


def restore_store(path: PathLike) -> GraphStore:
    """Recover a store from a checkpoint file."""
    return store_from_dict(json.loads(Path(path).read_text()))

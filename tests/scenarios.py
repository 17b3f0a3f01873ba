"""Seeded scenarios for the differential tests: streams, preload paths and
the delta-stream encoding they compare.

A scenario is replayable from its arguments alone: the update stream is
drawn from one ``random.Random(seed)``, and a store is preloaded through one
of the paths a deployment fills a store by — a graph loaded in process, a
``put_record`` replay, a checkpoint restore, or a bulk load over the wire to
an external server.  Every path must leave a store that mines the same
stream to the same bytes.
"""

from __future__ import annotations

import itertools
import pickle
import random
from contextlib import contextmanager
from typing import List, Optional

from repro.core.api import MiningAlgorithm
from repro.graph.adjacency import AdjacencyGraph
from repro.store.api import make_store
from repro.store.checkpoint import store_from_dict, store_to_dict
from repro.store.mvstore import MultiVersionStore
from repro.types import Update

#: how a store receives its initial graph (``bulk_load`` is ``net`` only)
PRELOAD_PATHS = ("graph", "put_record", "checkpoint", "bulk_load")


def stream_bytes(deltas) -> bytes:
    """Canonical byte encoding of a delta stream, one record per delta.

    Pickling the whole list at once would entangle the encoding with
    object-identity memoization (serial runs share subgraph objects across
    deltas; process runs return fresh copies), so each delta is encoded
    independently.  Its edge set is encoded sorted: iteration order is not
    part of a frozenset's value, and a set rebuilt on the far side of a
    pipe can iterate differently from an equal one built in place.
    """
    return b"\x00".join(
        pickle.dumps(
            (
                d.timestamp,
                d.status,
                d.subgraph.vertices,
                sorted(d.subgraph.edges),
                d.subgraph.vertex_labels,
                d.subgraph.edge_labels,
            )
        )
        for d in deltas
    )


class ReadsEverything(MiningAlgorithm):
    """Matches on what the view says about labels, edge labels and arcs.

    Every accessor a view caches behind (vertex labels, the slot map) or
    resolves through the engine (edge labels, directions) decides ``match``,
    so a wrong or stale answer from any of them changes the delta stream.
    """

    max_size = 3
    uses_edge_labels = True
    uses_directions = True

    def __init__(self, induced):
        self.induced = induced

    def filter(self, s):
        return len(s) <= self.max_size

    def match(self, s):
        arcs = sum(s.out_degree(v) for v in s)
        return (arcs + s.count_label("a") + s.count_edge_label("x")) % 2 == 0


def fact_stream(
    seed: int, fact: Optional[str], n: int = 7, length: int = 40
) -> List[Update]:
    """Adds and deletes over vertices ``0..n-1``; from the middle of the
    stream on, also updates that store a value of one capability fact.

    ``fact`` names it (``has_vertex_labels``: relabels;
    ``has_edge_labels``: labelled adds and edge relabels;
    ``has_directions``: directed adds; None: no value at all).  The first
    half stores no label and no direction, and the second half opens with
    a value, so a store that starts without the fact flips it mid-stream,
    at a known update.
    """
    rng = random.Random(seed)
    possible = list(itertools.combinations(range(n), 2))
    present = set()
    ops: List[Update] = []
    half = length // 2
    for i in range(length):
        roll = rng.randrange(10)
        valued = i == half or (i > half and roll >= 6)
        if i == half and fact != "has_vertex_labels":
            # the first edge value goes on an edge that is not live yet
            e = rng.choice([x for x in possible if x not in present])
        else:
            e = rng.choice(possible)
        if e in present and roll < 3 and i != half:
            present.discard(e)
            ops.append(Update.delete_edge(*e))
        elif valued and fact == "has_vertex_labels":
            ops.append(Update.set_vertex_label(e[0], rng.choice("abc")))
        elif valued and fact == "has_edge_labels" and e in present:
            ops.append(Update.set_edge_label(*e, rng.choice("xy")))
        elif e not in present:
            present.add(e)
            label = rng.choice("xy") if valued and fact == "has_edge_labels" else None
            direction = (
                rng.choice(("fwd", "rev", "both"))
                if valued and fact == "has_directions"
                else None
            )
            ops.append(Update.add_edge(*e, label, direction=direction))
        elif valued:  # a direction cannot be set on a live edge: take it down
            present.discard(e)
            ops.append(Update.delete_edge(*e))
    return ops


def isolated_edge(n: int, fact: Optional[str] = None) -> AdjacencyGraph:
    """The edge ``(n, n + 1)``, which no stream over ``0..n-1`` reaches,
    carrying a value of ``fact`` (or nothing): preloaded, it makes a store
    hold the fact from window 1 without changing what any task explores."""
    g = AdjacencyGraph()
    g.add_edge(
        n,
        n + 1,
        label="x" if fact == "has_edge_labels" else None,
        direction="fwd" if fact == "has_directions" else None,
    )
    if fact == "has_vertex_labels":
        g.set_vertex_label(n, "a")
    return g


@contextmanager
def preloaded(kind: str, graph: AdjacencyGraph, path: str):
    """A ``kind`` store holding ``graph`` at timestamp 1, filled by ``path``
    (see :data:`PRELOAD_PATHS`); closed, with any server it needed, on exit."""
    closers = []
    if path == "graph":
        store = make_store(kind, graph=graph)
    elif path == "put_record":
        staged = MultiVersionStore.from_adjacency(graph, ts=1)
        store = make_store(kind)
        for v, record in staged.iter_records():
            store.put_record(v, record)
        store.set_latest_timestamp(staged.latest_timestamp)
    elif path == "checkpoint":
        staged = MultiVersionStore.from_adjacency(graph, ts=1)
        store = store_from_dict({**store_to_dict(staged), "kind": kind})
    elif path == "bulk_load":
        from repro.net import NetStoreClient, StoreServer

        if kind != "net":
            raise ValueError("bulk_load preloads only the 'net' store")
        server = StoreServer(MultiVersionStore()).start()
        closers.append(server.close)
        store = NetStoreClient(server.address, graph=graph)
    else:
        raise ValueError(f"unknown preload path {path!r}")
    closers.insert(0, store.close)
    try:
        yield store
    finally:
        for close in closers:
            close()

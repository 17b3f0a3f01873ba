"""Capability facts: a store that learns a fact mid-stream mines like one
that held it from the first window.

While a store's ``has_vertex_labels`` / ``has_edge_labels`` /
``has_directions`` is False the engine answers the reads it covers with
``None`` and never asks the store.  That is only sound if every store kind
flips the fact on the first write that stores a value — before any task
of that window reads — on every path a value can arrive by, and never
flips it back.  The properties, over seeded streams (``scenarios.py``):

* on ``mv``, ``sharded``, ``remote`` and ``net``, on the ``serial`` and
  ``process`` backends, a stream whose first label (or edge label, or
  direction) arrives mid-stream yields the bytes of the same stream on a
  store that held the fact from window 1 and the live matches brute force
  finds in the final snapshot, and the fact only ever goes False -> True;
* a preloaded store reports exactly the facts of what it was loaded with,
  whichever way it was loaded — a graph, ``put_record``, a checkpoint
  restore, a bulk load to an external server — and so do a second client
  of that server and a pickled client;
* a ``hello`` without facts, and a store that declares none, read as all
  three True.
"""

import pickle

import pytest

from oracles import brute_force_vertex_induced
from repro.apps import CliqueMining
from repro.core.api import VertexInduced
from repro.core.engine import collect_matches
from repro.core.explore import Explorer
from repro.net import NetStoreClient, StoreServer
from repro.runtime.session import StreamingSession
from repro.store.api import CAPABILITY_FACTS, STORE_NAMES, capability_facts
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from scenarios import (
    PRELOAD_PATHS,
    ReadsEverything,
    fact_stream,
    isolated_edge,
    preloaded,
    stream_bytes,
)

#: stream vertices are 0..N-1; the preloaded edge is (N, N + 1)
N = 7
WINDOW = 4
SEEDS = (0, 1)


def mine(kind, backend, fact, held_from_start, seed, path="graph"):
    """Mine ``fact_stream(seed, fact)`` a window per ``process`` call on a
    ``kind`` store preloaded by ``path``; returns the deltas, before the
    first window and after each ``(facts, deltas so far)``, and the final
    snapshot as a plain graph."""
    ops = fact_stream(seed, fact, n=N)
    graph = isolated_edge(N, fact if held_from_start else None)
    with preloaded(kind, graph, path) as store:
        session = StreamingSession(
            ReadsEverything(VertexInduced),
            backend,
            window_size=WINDOW,
            store=store,
            num_workers=2,
        )
        seen = [(capability_facts(store), 0)]
        try:
            for i in range(0, len(ops), WINDOW):
                session.process(ops[i : i + WINDOW])
                seen.append((capability_facts(store), len(session.deltas())))
            final = store.as_adjacency(store.latest_timestamp)
        finally:
            session.close()
        return session.deltas(), seen, final


def oracle_matches(final):
    """The live matches of the final snapshot by brute force, resolving
    labels, edge labels and directions from the plain graph; the preloaded
    edge is never explored, so its subgraphs are left out."""
    return {
        match
        for match in brute_force_vertex_induced(final, ReadsEverything(VertexInduced))
        if max(match[0]) < N
    }


@pytest.mark.parametrize("fact", CAPABILITY_FACTS)
@pytest.mark.parametrize("backend", ["serial", "process"])
@pytest.mark.parametrize("kind", STORE_NAMES)
def test_a_fact_flipped_mid_stream_mines_like_one_held_from_window_one(
    kind, backend, fact
):
    for seed in SEEDS:
        late, late_seen, final = mine(kind, backend, fact, False, seed)
        held, held_seen, _ = mine(kind, backend, fact, True, seed)
        assert stream_bytes(late) == stream_bytes(held), f"seed {seed}"
        assert collect_matches(late) == oracle_matches(final), f"seed {seed}"
        flags = [facts[fact] for facts, _ in late_seen]
        # False, then True from the window of its first value on, never back
        assert flags == sorted(flags) and flags[-1], f"seed {seed}: {flags}"
        # ... and windows before that were mined, and emitted, without it
        assert late_seen[flags.index(True) - 1][1] > 0, f"seed {seed}"
        assert all(facts[fact] for facts, _ in held_seen)
        for other in CAPABILITY_FACTS:
            if other != fact:  # no value of it is ever stored
                assert not any(facts[other] for facts, _ in late_seen + held_seen)


PRELOADS = [
    (kind, path)
    for kind in STORE_NAMES
    for path in PRELOAD_PATHS
    if path != "bulk_load" or kind == "net"
]


@pytest.mark.parametrize("kind,path", PRELOADS)
def test_facts_survive_every_preload_path(kind, path):
    for fact in (None, *CAPABILITY_FACTS):
        want = {name: name == fact for name in CAPABILITY_FACTS}
        with preloaded(kind, isolated_edge(N, fact), path) as store:
            assert capability_facts(store) == want, fact
            if kind == "net":
                # what the server says in hello, to a new client or a copy
                again = NetStoreClient(store.address)
                copy = pickle.loads(pickle.dumps(store))
                assert capability_facts(again) == capability_facts(copy) == want
                again.close()
                copy.close()
    # and the preloaded store mines what a graph-loaded ``mv`` store mines
    for fact in CAPABILITY_FACTS:
        deltas, _, _ = mine(kind, "serial", fact, True, SEEDS[0], path)
        reference, _, _ = mine("mv", "serial", fact, True, SEEDS[0])
        assert stream_bytes(deltas) == stream_bytes(reference), fact


def test_a_client_learns_the_writes_of_the_one_writer():
    """A client's own writes flip its facts; another client learns them
    from ``hello`` — which is when a pickled client redials."""
    server = StoreServer(MultiVersionStore()).start()
    writer = NetStoreClient(server.address)
    try:
        assert not any(capability_facts(writer).values())
        writer.add_edge(0, 1, 1, direction="fwd")
        assert capability_facts(writer) == {
            "has_vertex_labels": False,
            "has_edge_labels": False,
            "has_directions": True,
        }
        writer.set_vertex_label(0, 2, None)  # stores no value: no flip
        assert not writer.has_vertex_labels
        writer.set_vertex_label(0, 3, "a")
        copy = pickle.loads(pickle.dumps(writer))
        assert capability_facts(copy) == capability_facts(writer)
        assert copy.has_vertex_labels and copy.has_directions
        copy.close()
    finally:
        writer.close()
        server.close()


def test_a_hello_without_facts_reads_as_all_true():
    server = StoreServer(MultiVersionStore())
    hello = server._ops["hello"]
    server._ops["hello"] = lambda args: {
        k: v for k, v in hello(args).items() if k != "facts"
    }
    server.start()
    client = NetStoreClient(server.address)
    try:
        assert capability_facts(server.store) == dict.fromkeys(CAPABILITY_FACTS, False)
        assert capability_facts(client) == dict.fromkeys(CAPABILITY_FACTS, True)
    finally:
        client.close()
        server.close()


class HidesFacts:
    """Every read of ``inner`` and none of its facts: a store proxy that
    does not know about them."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        if name in CAPABILITY_FACTS:
            raise AttributeError(name)
        return getattr(self._inner, name)


class CountingStore(MultiVersionStore):
    label_reads = 0

    def vertex_label_at(self, v, ts):
        self.label_reads += 1
        return super().vertex_label_at(v, ts)


def test_a_store_that_declares_no_facts_is_read_in_full():
    """One explorer handed views over a label-free store and over a proxy
    that hides its facts, task by task: the deltas are the same either
    way, and only the proxy's tasks read labels."""
    store = CountingStore()
    queue = WorkQueue()
    ingress = IngressNode(store, queue, window_size=3)
    ingress.submit_many(fact_stream(3, None, n=N))
    ingress.flush()
    assert not store.has_vertex_labels
    explorer = Explorer(CliqueMining(3, min_size=3))
    fresh_reads = 0
    tasks = [(ts, update) for ts, updates in queue.drain_windows() for update in updates]
    for i, (ts, update) in enumerate(tasks):
        through = HidesFacts(store) if i % 2 else store
        before = store.label_reads
        got = explorer.explore_update(ExplorationView(through, ts), update)
        want = Explorer(CliqueMining(3, min_size=3)).explore_update(
            ExplorationView(store, ts), update
        )
        assert got == want
        if through is store:
            assert store.label_reads == before
        elif got:
            assert store.label_reads > before
            fresh_reads += 1
    assert fresh_reads

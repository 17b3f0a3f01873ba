"""Coherence oracle for the write-through fetch-boundary clients.

``NetStoreClient`` and ``RemoteStoreClient`` patch the record copies they
hold when an edge write is acknowledged instead of dropping them.  The
oracle for that policy is the store itself: before and after every
``flush()`` (before it, ``net`` also holds the copies the ingress read
ahead but has not written yet) each held copy must equal a fresh
``get_record`` of the same vertex (dataclass
equality, so every interval's ``added_ts``/``deleted_ts``/label/direction
counts).  That the mined delta stream equals ``mv``'s byte for byte is
``test_differential.py``'s.

The streams mix everything the ingress translates into edge writes
(:func:`scenarios.draw_update`): adds with labels and directions,
deletes, delete-then-re-add inside and across windows,
``set_vertex_label`` (delete + label + re-add in dedicated windows),
``set_edge_label``, ``delete_vertex`` — with unbounded and tiny copy
caches, GC on and off.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import CliqueMining
from repro.errors import InvalidUpdateError
from repro.net import NetStoreClient
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore, VertexRecord
from repro.store.remote import RemoteStoreClient
from repro.types import EdgeUpdate, Update
from scenarios import draw_update, stream_bytes

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

def make_client(kind: str, cache_capacity):
    if kind == "net":
        return NetStoreClient(cache_capacity=cache_capacity)
    return RemoteStoreClient(MultiVersionStore(), cache_capacity=cache_capacity)


def held_copies(client):
    """``(vertex, adjacency)`` of every record copy the client holds."""
    for v, held in client._cache.items():
        yield v, held.edges


def assert_coherent(client):
    checked = 0
    for v, edges in held_copies(client):
        fresh = client.get_record(v) or VertexRecord()
        assert edges == fresh.edges, f"{client.kind}: held copy of {v} is stale"
        checked += 1
    return checked


def run_stream(store, batches, window_size, gc_enabled, check=None, read_ahead=True):
    """Mine ``batches``, one ``flush`` each.  ``check`` runs on the store
    before each flush (copies read ahead, not yet written) and after it.
    Without ``read_ahead`` each update goes through ``submit`` alone."""
    session = StreamingSession(
        CliqueMining(3, min_size=3),
        "serial",
        window_size=window_size,
        store=store,
        gc_enabled=gc_enabled,
    )
    try:
        for batch in batches:
            if read_ahead:
                session.submit_many(batch)
            else:
                for update in batch:
                    session.submit(update)
            if check is not None:
                check(session.store)
            session.flush()
            if check is not None:
                check(session.store)
        return stream_bytes(session.deltas())
    finally:
        session.close()


@pytest.mark.parametrize("kind", ["net", "remote"])
class TestHeldCopiesEqualRefetch:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        window_size=st.sampled_from([1, 3, 8]),
        cache_capacity=st.sampled_from([None, 2, 5]),
        gc_enabled=st.booleans(),
    )
    def test_random_streams(self, kind, seed, window_size, cache_capacity, gc_enabled):
        rng = random.Random(seed)
        batches = [
            [draw_update(rng) for _ in range(rng.randint(1, 12))] for _ in range(6)
        ]
        checked = []
        client = make_client(kind, cache_capacity)
        try:
            run_stream(
                client,
                batches,
                window_size,
                gc_enabled,
                check=lambda store: checked.append(assert_coherent(store)),
            )
        finally:
            client.close()
        if cache_capacity is not None:
            assert len(client._cache) <= cache_capacity

    def test_delete_then_readd_within_and_across_windows(self, kind):
        """The seeded shape the patch is most likely to get wrong: one
        edge's interval list grows and is tombstoned over and over while
        both endpoint copies stay held."""
        batches = [
            [
                Update.add_edge(0, 1, label="a"),
                Update.add_edge(1, 2),
                Update.add_edge(0, 2),
            ],
            # the re-add is deferred to the next window by the ingress
            [Update.delete_edge(0, 1), Update.add_edge(1, 0, label="b")],
            [Update.delete_edge(1, 0)],
            [Update.add_edge(0, 1, direction="rev"), Update.set_vertex_label(2, "x")],
            [Update.delete_vertex(1)],
        ]
        client = make_client(kind, None)
        checked = []
        try:
            run_stream(
                client,
                batches,
                4,
                False,
                check=lambda store: checked.append(assert_coherent(store)),
            )
            versions = client.get_record(0).edges[1]
        finally:
            client.close()
        # after each flush 0, 1, 2 were held throughout, never dropped
        assert min(checked[1::2]) >= 3
        assert len(versions) == 3 and all(iv.deleted_ts for iv in versions)

    def test_rejected_write_leaves_held_copies_coherent(self, kind):
        """A write the store rejects drops its endpoints' copies: what the
        store applied is not the client's to guess.  In the window form
        the updates before the rejected one did apply."""
        client = make_client(kind, None)
        try:
            for u, v in [(0, 1), (1, 2), (3, 4)]:
                client.add_edge(u, v, 1)
            for v in range(5):
                client.neighbor_states_at(v, 1)
            with pytest.raises(InvalidUpdateError):
                client.add_edge(1, 0, 2)  # already alive
            assert assert_coherent(client) == 3  # 0 and 1 dropped
            for v in range(5):
                client.neighbor_states_at(v, 2)
            window = [EdgeUpdate(0, 2, added=True), EdgeUpdate(3, 4, added=True)]
            with pytest.raises(InvalidUpdateError):
                client.apply_edge_updates(3, window)
            assert assert_coherent(client) == 1  # every endpoint dropped
            assert client.edge_alive_at(2, 0, 3)  # the first update applied
        finally:
            client.close()


@pytest.mark.parametrize("window_size", [3, 8])
@pytest.mark.parametrize("cache_capacity", [0, 2])
def test_read_ahead_into_a_bounded_cache_costs_no_extra_round_trips(
    cache_capacity, window_size
):
    """A bounded copy cache may evict what the ingress read ahead before
    sanitisation reads it, so it is not read ahead: no more RPCs than
    per-update ``submit``, and the output of ``mv``."""
    rng = random.Random(cache_capacity * 10 + window_size)
    batches = [[draw_update(rng) for _ in range(12)] for _ in range(6)]
    expected = run_stream("mv", batches, window_size, False)
    rpcs = {}
    for read_ahead in (True, False):
        client = make_client("net", cache_capacity)
        try:
            mined = run_stream(client, batches, window_size, False, read_ahead=read_ahead)
            rpcs[read_ahead] = client.net_log.rpcs
        finally:
            client.close()
        assert mined == expected
    assert rpcs[True] <= rpcs[False]


def test_remote_held_copy_shares_no_version_list():
    """A held copy is the client's own: patching it never reaches the
    backing store's record, and the store's writes never reach it."""
    inner = MultiVersionStore()
    client = RemoteStoreClient(inner)
    client.add_edge(0, 1, 1, label="a")
    for v in (0, 1):
        client.neighbor_states_at(v, 1)
    client.add_edge(0, 2, 2)  # written through to 0's copy
    client.delete_edge(0, 1, 3)  # tombstoned in both copies
    for v in (0, 1):
        held, stored = client._cache[v], inner.get_record(v)
        assert held == stored
        assert held.label_history is not stored.label_history
        for u, versions in stored.edges.items():
            assert held.edges[u] is not versions
            assert not any(a is b for a, b in zip(held.edges[u], versions))

"""Network chaos: mining output is byte-identical under injected faults.

A :class:`FaultProxy` (frame-aware, deterministic, counter-scheduled) sits
between the :class:`NetStoreClient` and the :class:`StoreServer`, dropping,
duplicating, and reordering frames.  Drops force the client through its
deadline + retry machinery; duplicated requests force the server's
exactly-once write dedup; duplicated responses force the client's
request-id discard loop.  Reordered frames exercise the fetch-ahead
window's id matching, where several ``multi_get`` replies share one
connection; on a connection carrying one request, a held reply has no
successor to swap with, so it is a deadline and a retry.  None of it
may change a single output byte.
"""

import pytest
from net_proxy import FaultProxy

from repro.apps import CliqueMining
from repro.graph.generators import erdos_renyi
from repro.net import NetStoreClient, RetryPolicy, StoreServer
from repro.net.errors import RetriesExhausted
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore, VertexRecord
from repro.types import EdgeUpdate, Update

# Tight deadline + fast backoff: each dropped frame costs one deadline
# wait, so chaos runs stay quick while still exercising real timeouts.
CHAOS_DEADLINE = 0.15
CHAOS_RETRY = RetryPolicy(max_attempts=5, base_delay=0.01, max_delay=0.05)


def update_stream():
    """A fixed add/delete stream with enough volume to span many frames."""
    edges = erdos_renyi(16, 40, seed=13).sorted_edges()
    updates = [Update.add_edge(u, v) for u, v in edges[:30]]
    updates += [Update.delete_edge(*edges[4]), Update.delete_edge(*edges[9])]
    updates += [Update.add_edge(u, v) for u, v in edges[30:]]
    return updates


def mine_through(store, window_size=6):
    session = StreamingSession(
        CliqueMining(3, min_size=3), "serial", window_size=window_size, store=store
    )
    session.submit_many(update_stream())
    session.flush()
    deltas = session.deltas()
    session.close()
    return deltas


@pytest.fixture
def proxied(request):
    """(client, proxy) for a NetStoreClient routed through a FaultProxy."""
    faults = getattr(request, "param", {})
    server = StoreServer(MultiVersionStore()).start()
    proxy = FaultProxy(server.address, **faults).start()
    client = NetStoreClient(
        proxy.address, deadline=CHAOS_DEADLINE, retry=CHAOS_RETRY
    )
    yield client, proxy
    client.close()
    proxy.close()
    server.close()


class TestChaosMining:
    @pytest.mark.parametrize(
        "proxied",
        [
            {"dup_every": 3},
            {"drop_every": 17},
            {"drop_every": 19, "dup_every": 5},
            {"drop_every": 23, "dup_every": 7, "delay_every": 11, "delay_s": 0.02},
        ],
        indirect=True,
        ids=["dups", "drops", "drops+dups", "drops+dups+delays"],
    )
    def test_output_identical_under_faults(self, proxied):
        client, proxy = proxied
        reference = mine_through("mv")
        assert reference  # the stream must actually produce matches
        assert mine_through(client) == reference
        dropped, duplicated, delayed = proxy.fault_counts()
        # the schedule must have actually fired for the run to count
        assert (dropped + duplicated + delayed) > 0

    @pytest.mark.parametrize(
        "proxied",
        [
            {"reorder_every": 3},
            {"reorder_every": 4, "drop_every": 21, "dup_every": 9},
        ],
        indirect=True,
        ids=["reorders", "reorders+drops+dups"],
    )
    def test_output_identical_under_reordering(self, proxied):
        """Fetch-ahead replies arriving out of order (with drops and dups
        layered on top) never change a mined byte — the window matches
        by id, not arrival order, and a held lone reply is retried."""
        client, proxy = proxied
        assert mine_through(client) == mine_through("mv")
        assert proxy.reorder_count() > 0

    @pytest.mark.parametrize(
        "proxied", [{"drop_every": 13, "dup_every": 4}], indirect=True
    )
    def test_client_retried_and_recovered(self, proxied):
        """Drops are visible in the net log (retries / deadline hits) yet
        invisible in the mined output — the whole point of the layer."""
        client, proxy = proxied
        assert mine_through(client) == mine_through("mv")
        dropped, duplicated, _ = proxy.fault_counts()
        assert dropped > 0 and duplicated > 0
        assert client.net_log.retries > 0
        stats = client.store_stats()
        assert stats["net_retries"] == client.net_log.retries


class TestChaosWrites:
    @pytest.mark.parametrize(
        "proxied",
        [
            {"drop_every": 7, "dup_every": 3},
            {"drop_every": 11, "dup_every": 5, "reorder_every": 4},
        ],
        indirect=True,
        ids=["drops+dups", "drops+dups+reorders"],
    )
    def test_writes_apply_exactly_once(self, proxied):
        """Dropped responses trigger write retransmits; duplicated request
        frames re-deliver writes; reordering scrambles the coalesced
        put_edges replies.  The dedup window must absorb all of it."""
        client, proxy = proxied
        edges = erdos_renyi(10, 22, seed=3).sorted_edges()
        for ts, (u, v) in enumerate(edges, start=1):
            client.add_edge(u, v, ts)
        client.delete_edge(*edges[0], ts=len(edges) + 1)

        clean = MultiVersionStore()
        for ts, (u, v) in enumerate(edges, start=1):
            clean.add_edge(u, v, ts)
        clean.delete_edge(*edges[0], len(edges) + 1)

        final_ts = len(edges) + 1
        for v in sorted(clean.vertices()):
            assert client.neighbor_states_at(v, final_ts) == dict(
                clean.neighbor_states_at(v, final_ts)
            )
            # version counts prove no double-apply slipped through
            assert {
                dst: len(ivs) for dst, ivs in client.get_record(v).edges.items()
            } == {dst: len(ivs) for dst, ivs in clean.get_record(v).edges.items()}
        dropped, duplicated, _ = proxy.fault_counts()
        assert dropped + duplicated > 0

    @pytest.mark.parametrize(
        "proxied", [{"drop_every": 9, "dup_every": 5}], indirect=True
    )
    def test_reclaim_and_reads_survive_faults(self, proxied):
        client, proxy = proxied
        client.add_edge(1, 2, 1)
        client.add_edge(2, 3, 2)
        client.delete_edge(1, 2, 3)
        stats = client.reclaim(3)
        assert stats.horizon == 3
        assert stats.reclaimed == 1  # the (1,2) version died before the horizon
        # post-reclaim reads still come back clean through the proxy
        assert client.neighbors_at(2, 3) == [3]
        assert client.edge_alive_at(1, 2, 3) is False


class TestChaosWriteThrough:
    """The client patches its held copies only on an acknowledgement, so
    the interesting faults are the ones that lose exactly that."""

    WINDOW_1 = [EdgeUpdate(1, 2, added=True, label="a"), EdgeUpdate(2, 3, added=True)]
    WINDOW_2 = [
        EdgeUpdate(1, 2, added=False),
        EdgeUpdate(1, 3, added=True, direction="rev"),
        EdgeUpdate(3, 4, added=True),
    ]

    def test_lost_put_edges_reply_replays_then_patches(self, proxied):
        client, proxy = proxied
        client.apply_edge_updates(1, self.WINDOW_1)
        client.neighbor_states_at(9, 1)  # an untouched held copy
        fetches = client.log.fetches
        assert set(client._cache) == {1, 2, 3, 9}

        proxy.drop_replies = 1  # put_edges lands, its ack is lost
        client.apply_edge_updates(2, self.WINDOW_2)
        assert proxy.fault_counts()[0] == 1
        assert client.net_log.retries == 1
        # the retry replayed from the dedup table (a second apply would
        # have raised "already exists"), and the ack then patched 1, 2, 3
        # in place: only vertex 4 was not held and had to be shipped
        assert client.log.fetches == fetches + 1
        assert set(client._cache) == {1, 2, 3, 4, 9}
        for v, held in client._cache.items():
            assert held == (client.get_record(v) or VertexRecord()), v
        assert client.neighbor_states_at(1, 2) == {2: (True, False), 3: (False, True)}

    def test_exhausted_write_raises_and_drops_the_chunks_copies(self, proxied):
        client, proxy = proxied
        client.apply_edge_updates(1, self.WINDOW_1)
        client.neighbor_states_at(9, 1)

        proxy.drop_replies = CHAOS_RETRY.max_attempts  # every ack is lost
        with pytest.raises(RetriesExhausted):
            client.apply_edge_updates(2, self.WINDOW_2)
        # the server did apply the window; the client cannot know that, so
        # it holds no copy of any endpoint of the chunk — and keeps 9
        assert set(client._cache) == {9}
        assert proxy.drop_replies == 0
        assert client.neighbor_states_at(1, 2) == {2: (True, False), 3: (False, True)}
        assert client.neighbor_states_at(4, 2) == {3: (False, True)}

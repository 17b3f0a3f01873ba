"""Property tests: every GraphStore kind is observationally identical.

The :class:`~repro.store.api.GraphStore` protocol promises that the flat
``mv`` store, the physically sharded store, the remote fetch-boundary
client, and the wire-backed ``net`` client (real sockets, loopback) are
interchangeable: identical ``SnapshotView``/``ExplorationView`` reads at
every timestamp, and identical reads before and after
:meth:`~repro.store.api.GraphStore.reclaim` at any valid horizon.  These
tests drive randomized evolving workloads through all kinds and compare
them observation by observation.  Mining output on every kind, backend
and wire-fault schedule is ``test_differential.py``'s.
"""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.store.api import STORE_NAMES, make_store
from repro.store.mvstore import VertexRecord, neighbor_states
from repro.store.snapshot import ExplorationView, SnapshotView

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edit_scripts(draw, max_vertices=7, length=24):
    """A timestamped add/delete script, one window per timestamp.

    Returns ``[(ts, key, added), ...]`` with timestamps 1..T; every delete
    targets a currently live edge and no edge is touched twice in one
    window, so the script applies cleanly to any store.
    """
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    possible = list(itertools.combinations(range(n), 2))
    per_window = draw(st.sampled_from([1, 2, 4]))
    script = []
    present = set()
    ts = 1
    in_window = set()
    for _ in range(length):
        if len(in_window) >= per_window:
            ts += 1
            in_window = set()
        deletable = sorted(present - in_window)
        delete = deletable and draw(
            st.floats(min_value=0.0, max_value=1.0)
        ) < 0.45
        if delete:
            key = draw(st.sampled_from(deletable))
            present.discard(key)
            script.append((ts, key, False))
        else:
            addable = [e for e in possible if e not in present and e not in in_window]
            if not addable:
                ts += 1
                in_window = set()
                continue
            key = draw(st.sampled_from(addable))
            present.add(key)
            script.append((ts, key, True))
        in_window.add(key)
    return script


def apply_script(store, script):
    for ts, (u, v), added in script:
        if added:
            store.add_edge(u, v, ts)
        else:
            store.delete_edge(u, v, ts)
    return store


def observations(store, ts, vertices):
    """Every protocol-level read of one snapshot, in canonical form."""
    snap = SnapshotView(store, ts)
    view = ExplorationView(store, ts) if ts >= 1 else None
    rows = []
    for v in vertices:
        rows.append(
            (
                v,
                store.neighbors_at(v, ts),
                store.union_neighbors_at(v, ts),
                dict(sorted(store.neighbor_states_at(v, ts).items())),
                store.degree_at(v, ts),
                snap.has_vertex(v),
                view.neighbors(v) if view else None,
            )
        )
        for u in vertices:
            if u < v:
                rows.append(
                    (
                        (u, v),
                        store.edge_alive_at(u, v, ts),
                        store.edge_updated_at(u, v, ts),
                        view.updated_in_window(u, v) if view else None,
                        view.edge_state(u, v) if view else None,
                    )
                )
    rows.append(sorted(store.edges_at(ts)))
    rows.append(dict(sorted(store.updated_keys_in(ts).items())))
    return rows


class TestStoreReadEquivalence:
    @SETTINGS
    @given(edit_scripts())
    def test_all_kinds_read_identically(self, script):
        if not script:
            return
        stores = {
            kind: apply_script(make_store(kind), script) for kind in STORE_NAMES
        }
        try:
            vertices = sorted({v for _, key, _ in script for v in key})
            last_ts = stores["mv"].latest_timestamp
            for ts in range(1, last_ts + 1):
                reference = observations(stores["mv"], ts, vertices)
                for kind in STORE_NAMES:
                    if kind == "mv":
                        continue
                    assert observations(stores[kind], ts, vertices) == reference, (
                        f"{kind} store reads diverged from mv at ts {ts}"
                    )
        finally:
            for store in stores.values():
                store.close()

    @SETTINGS
    @given(edit_scripts())
    def test_neighbor_states_agree_with_point_probes(self, script):
        """The shared record -> states derivation equals two
        ``edge_alive_at`` probes per neighbor, on delete-then-re-add
        histories and on an empty version list left by ``put_record``."""
        if not script:
            return
        vertices = sorted({v for _, key, _ in script for v in key})
        hollow = max(vertices) + 1
        for kind in STORE_NAMES:
            store = apply_script(make_store(kind), script)
            last_ts = store.latest_timestamp
            store.put_record(hollow, VertexRecord(edges={vertices[0]: []}))
            try:
                for ts in range(1, last_ts + 1):
                    for v in (*vertices, hollow):
                        states = store.neighbor_states_at(v, ts)
                        record = store.get_record(v)
                        assert neighbor_states(record.edges, ts) == states
                        assert (False, False) not in states.values()
                        for u in (*vertices, hollow):
                            probes = (
                                store.edge_alive_at(v, u, ts - 1),
                                store.edge_alive_at(v, u, ts),
                            )
                            assert states.get(u, (False, False)) == probes, (
                                f"{kind}: ({v}, {u}) at ts {ts}"
                            )
            finally:
                store.close()

    @SETTINGS
    @given(edit_scripts(), st.integers(min_value=0, max_value=10))
    def test_reads_unchanged_after_reclaim(self, script, horizon_seed):
        """reclaim(horizon) never changes reads at snapshots > horizon."""
        if not script:
            return
        vertices = sorted({v for _, key, _ in script for v in key})
        for kind in STORE_NAMES:
            store = apply_script(make_store(kind), script)
            last_ts = store.latest_timestamp
            horizon = horizon_seed % (last_ts + 1)
            before = {
                ts: observations(store, ts, vertices)
                for ts in range(horizon + 1, last_ts + 1)
            }
            stats = store.reclaim(horizon)
            assert stats.reclaimed >= 0
            after = {
                ts: observations(store, ts, vertices)
                for ts in range(horizon + 1, last_ts + 1)
            }
            assert after == before, (
                f"{kind} reads changed after reclaim({horizon})"
            )
            store.close()

    @SETTINGS
    @given(edit_scripts(length=16))
    def test_reclaim_drops_exactly_dead_versions(self, script):
        """reclaimed count == tombstones at or below the horizon; the
        delta index keeps agreeing with interval scans afterwards."""
        if not script:
            return
        for kind in ("mv", "sharded"):
            store = apply_script(make_store(kind), script)
            last_ts = store.latest_timestamp
            expected_dead = sum(
                1 for ts, _, added in script if not added and ts <= last_ts
            )
            stats = store.reclaim(last_ts)
            assert stats.reclaimed == expected_dead
            assert stats.index_pruned == 2 * expected_dead or not expected_dead
            assert sum(stats.per_shard.values()) == stats.reclaimed
            assert store.tombstone_count() == 0
            # idempotent: a second pass at the same horizon finds nothing
            assert store.reclaim(last_ts).reclaimed == 0

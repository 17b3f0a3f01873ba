"""Differential tests: log-driven ``reclaim`` against the whole-store scan.

:meth:`BaseRecordStore.reclaim` pops a deletion log and rewrites only the
version lists of the edges it names.  The scan it replaced read every
record and every neighbour; it lives on here as
:func:`reference_reclaim`.  Two stores of one kind are built the same way, one
reclaims through the protocol and the other through the scan, and they
must agree on every :class:`ReclaimStats` field, on every record
afterwards and on every read above the horizon — for all four store kinds,
for stores installed by ``put_record`` (whose endpoints share no
``EdgeInterval``), for restored checkpoints (whose endpoints share each
``EdgeInterval``, in a list each), and with the delta index off.
"""

import contextlib
import copy
import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net import NetStoreClient, StoreServer
from repro.store.api import STORE_NAMES, ReclaimStats
from repro.store.checkpoint import store_from_dict, store_to_dict
from repro.store.mvstore import EdgeInterval, MultiVersionStore, VertexRecord
from repro.store.remote import RemoteStoreClient
from repro.store.sharded import ShardedStore
from tests.property.test_store_equivalence import (
    apply_script,
    edit_scripts,
    observations,
)

def reference_reclaim(store, horizon):
    """The whole-store ``reclaim`` scan :class:`~repro.store.mvstore.\
    BaseRecordStore` ran before it kept a deletion log, as the oracle.

    ``store`` is an in-process record store (for the ``remote`` and
    ``net`` kinds, the store behind the client).  Every record and every
    neighbour is read.  One change from the code that was deleted:
    records are visited in vertex order, so an edge's lower endpoint comes
    first; the scan counted a version at its lower endpoint only, and
    where both endpoints held one version list (checkpoints were once
    restored so) visiting the higher one first emptied the list and the
    version went uncounted.
    """
    stats = ReclaimStats(horizon=horizon)
    for u, record in sorted(store.iter_records()):
        empty_neighbors = []
        for v, versions in record.edges.items():
            dead = [
                iv
                for iv in versions
                if iv.deleted_ts is not None and iv.deleted_ts <= horizon
            ]
            if dead:
                key = (u, v) if u < v else (v, u)
                if store._delta_enabled:
                    for iv in dead:
                        stats.index_pruned += store._delta.discard(iv.added_ts, key)
                        stats.index_pruned += store._delta.discard(iv.deleted_ts, key)
                if u < v:
                    stats.reclaimed += len(dead)
                    shard = store.shards.shard_of(u)
                    stats.per_shard[shard] = stats.per_shard.get(shard, 0) + len(dead)
                versions[:] = [
                    iv
                    for iv in versions
                    if iv.deleted_ts is None or iv.deleted_ts > horizon
                ]
            if not versions:
                empty_neighbors.append(v)
        for v in empty_neighbors:
            del record.edges[v]
    return stats


SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@contextlib.contextmanager
def opened(kind, delta_index=True):
    """``(store, backing)``: a store of ``kind`` and the record store behind it."""
    with contextlib.ExitStack() as stack:
        if kind == "sharded":
            store = backing = ShardedStore(delta_index=delta_index)
        else:
            backing = MultiVersionStore(delta_index=delta_index)
            store = backing
            if kind == "remote":
                store = RemoteStoreClient(backing)
            elif kind == "net":
                server = StoreServer(backing).start()
                stack.callback(server.close)
                store = NetStoreClient(server.address)
        stack.callback(store.close)
        yield store, backing


def zero(stats: ReclaimStats) -> bool:
    return not (stats.reclaimed or stats.per_shard or stats.index_pruned)


def assert_same_reclaim(kind, build, horizons, delta_index=True):
    """``build(store)`` fills two stores; each horizon is reclaimed on both."""
    with opened(kind, delta_index) as (a, _), opened(kind, delta_index) as (b, b_back):
        build(a)
        build(b)
        last_ts = a.latest_timestamp
        vertices = sorted(v for v, _ in a.iter_records())
        floor = 0
        for horizon in horizons:
            # reads at or below any earlier horizon are undefined
            floor = max(floor, horizon)
            above = range(floor + 1, last_ts + 1)
            before = {ts: observations(a, ts, vertices) for ts in above}
            assert before == {ts: observations(b, ts, vertices) for ts in above}
            got = a.reclaim(horizon)
            want = reference_reclaim(b_back, horizon)
            if b is not b_back:
                b.drop_cache()  # the scan went behind the client's back
            for f in dataclasses.fields(ReclaimStats):
                assert getattr(got, f.name) == getattr(want, f.name), (
                    f"{kind} reclaim({horizon}): {f.name}"
                )
            assert dict(a.iter_records()) == dict(b.iter_records())
            assert {ts: observations(a, ts, vertices) for ts in above} == before
            again = a.reclaim(horizon)
            assert zero(again), f"{kind} reclaim({horizon}) twice: {again}"
        return got


def unshared_copy(src, order):
    """``build`` installing ``src``'s records by ``put_record``, one deep
    copy each (so endpoints share no interval), in ``order``."""
    records = dict(src.iter_records())

    def build(store):
        for v in order:
            store.put_record(v, copy.deepcopy(records[v]))
        store.set_latest_timestamp(src.latest_timestamp)

    return build


@st.composite
def scripts_and_horizons(draw, **kwargs):
    script = draw(edit_scripts(**kwargs))
    last_ts = max((ts for ts, _, _ in script), default=0)
    horizons = draw(
        st.lists(st.integers(min_value=0, max_value=last_ts), min_size=1, max_size=4)
    )
    return script, horizons


class TestAgainstTheScan:
    @SETTINGS
    @given(scripts_and_horizons())
    def test_applied_scripts(self, case):
        """Horizons come in any order: one below an earlier one finds nothing."""
        script, horizons = case
        for kind in STORE_NAMES:
            assert_same_reclaim(kind, lambda s: apply_script(s, script), horizons)

    @SETTINGS
    @given(scripts_and_horizons(), st.randoms(use_true_random=False))
    def test_put_record_stores(self, case, rng):
        """Installed records hold a copy of each interval per endpoint and
        their tombstones enter the log out of time order."""
        script, horizons = case
        src = apply_script(MultiVersionStore(), script)
        order = sorted(v for v, _ in src.iter_records())
        rng.shuffle(order)
        for kind in STORE_NAMES:
            assert_same_reclaim(kind, unshared_copy(src, order), horizons)

    @SETTINGS
    @given(scripts_and_horizons(length=30))
    def test_writes_on_top_of_installed_records(self, case):
        """A delete over ``put_record`` copies tombstones both endpoints."""
        script, horizons = case
        cut = len(script) // 2
        head_ts = script[cut - 1][0] if cut else 0
        head = [op for op in script if op[0] <= head_ts]
        tail = [op for op in script if op[0] > head_ts]
        src = apply_script(MultiVersionStore(), head)
        install = unshared_copy(src, sorted(v for v, _ in src.iter_records()))

        def build(store):
            install(store)
            apply_script(store, tail)

        for kind in STORE_NAMES:
            assert_same_reclaim(kind, build, horizons)

    @SETTINGS
    @given(scripts_and_horizons())
    def test_restored_checkpoints(self, case):
        """A restored store's endpoints share each version's interval."""
        script, horizons = case
        for kind in ("mv", "sharded"):
            with opened(kind) as (src, _):
                data = store_to_dict(apply_script(src, script))
            a, b = store_from_dict(data), store_from_dict(data)
            for horizon in horizons:
                got, want = a.reclaim(horizon), reference_reclaim(b, horizon)
                assert got == want
                assert dict(a.iter_records()) == dict(b.iter_records())
                assert zero(a.reclaim(horizon))

    @SETTINGS
    @given(scripts_and_horizons(length=16))
    def test_without_delta_index(self, case):
        script, horizons = case
        for kind in STORE_NAMES:
            got = assert_same_reclaim(
                kind, lambda s: apply_script(s, script), horizons, delta_index=False
            )
            assert got.index_pruned == 0


class TestNamedCases:
    @pytest.mark.parametrize("kind", STORE_NAMES)
    def test_delete_readd_delete_is_counted_per_version(self, kind):
        """Two log entries for one edge: both versions go, each counted once."""
        script = [(1, (0, 1), True), (2, (0, 1), False), (3, (0, 1), True),
                  (4, (0, 1), False), (5, (0, 1), True)]  # fmt: skip
        got = assert_same_reclaim(kind, lambda s: apply_script(s, script), [4])
        assert (got.reclaimed, got.index_pruned) == (2, 4)
        with opened(kind) as (store, backing):
            apply_script(store, script)
            assert len(backing._deleted) == 2
            assert store.reclaim(2).reclaimed == 1
            assert len(backing._deleted) == 1
            assert store.reclaim(4).reclaimed == 1
            assert backing._deleted == []
            assert store.edge_alive_at(0, 1, 5)

    @pytest.mark.parametrize("kind", STORE_NAMES)
    def test_one_endpoint_installed_without_its_mirror(self, kind):
        """Only vertex 5's record knows the edge: its list is rewritten,
        and nothing is counted (a version counts at its lower endpoint)."""

        def build(store):
            store.put_record(5, VertexRecord(edges={2: [EdgeInterval(1, 2)]}))
            store.set_latest_timestamp(3)

        got = assert_same_reclaim(kind, build, [2])
        assert got.reclaimed == 0
        with opened(kind) as (store, _):
            build(store)
            store.reclaim(2)
            assert store.get_record(5).edges == {}

    @pytest.mark.parametrize("kind", ("mv", "sharded"))
    def test_restored_checkpoint_counts_at_the_lower_endpoint(self, kind):
        """``add_edge(5, 2)`` creates record 5 first; when a restored
        store's two records held one list, the scan in record order
        emptied it at vertex 5 and counted nothing at vertex 2."""
        with opened(kind) as (src, _):
            src.add_edge(5, 2, 1)
            src.delete_edge(5, 2, 2)
            restored = store_from_dict(store_to_dict(src))
        stats = restored.reclaim(2)
        assert (stats.reclaimed, stats.index_pruned) == (1, 2)
        assert restored.memory_items() == 0

    def test_late_put_record_tombstone_below_an_earlier_horizon(self):
        store = apply_script(
            MultiVersionStore(), [(1, (0, 1), True), (6, (0, 1), False)]
        )
        assert store.reclaim(6).reclaimed == 1
        store.put_record(3, VertexRecord(edges={4: [EdgeInterval(2, 3)]}))
        store.put_record(4, VertexRecord(edges={3: [EdgeInterval(2, 3)]}))
        assert store.reclaim(2).reclaimed == 0
        stats = store.reclaim(3)
        assert (stats.reclaimed, stats.index_pruned) == (1, 2)
        assert store._deleted == [] and store.memory_items() == 0

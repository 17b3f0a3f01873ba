"""Unit tests for value types, metrics, and shard placement."""

import pytest

from repro.core.metrics import Metrics
from repro.store.shard import AccessStats, ShardMap
from repro.types import (
    EdgeUpdate,
    MatchDelta,
    MatchStatus,
    MatchSubgraph,
    Update,
    UpdateKind,
    WindowStats,
    edge_key,
)


class TestEdgeKey:
    def test_normalization(self):
        assert edge_key(5, 2) == (2, 5)
        assert edge_key(2, 5) == (2, 5)


class TestUpdate:
    def test_edge_factories(self):
        u = Update.add_edge(1, 2, label="x")
        assert u.kind is UpdateKind.ADD_EDGE and u.label == "x"
        assert Update.delete_edge(1, 2).kind is UpdateKind.DELETE_EDGE

    def test_vertex_factories(self):
        assert Update.add_vertex(1).kind is UpdateKind.ADD_VERTEX
        assert Update.delete_vertex(1).dst is None
        assert Update.set_vertex_label(1, "a").label == "a"
        assert Update.set_edge_label(1, 2, "b").dst == 2

    def test_edge_update_requires_dst(self):
        with pytest.raises(ValueError):
            Update(UpdateKind.ADD_EDGE, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Update.add_edge(3, 3)


class TestEdgeUpdate:
    def test_ordering_invariant(self):
        with pytest.raises(ValueError):
            EdgeUpdate(5, 2, added=True)
        assert EdgeUpdate(2, 5, added=True).key == (2, 5)


class TestMatchSubgraph:
    def test_identity_order_independent(self):
        a = MatchSubgraph((1, 2, 3), frozenset({(1, 2), (2, 3)}))
        b = MatchSubgraph((3, 2, 1), frozenset({(1, 2), (2, 3)}))
        assert a.identity == b.identity

    def test_labels_alignment_enforced(self):
        with pytest.raises(ValueError):
            MatchSubgraph((1, 2), frozenset(), vertex_labels=("a",))

    def test_counts(self):
        m = MatchSubgraph((1, 2, 3), frozenset({(1, 2)}))
        assert m.num_vertices() == 3 and m.num_edges() == 1

    def test_label_of_without_labels(self):
        m = MatchSubgraph((1, 2), frozenset({(1, 2)}))
        assert m.label_of(1) is None
        assert m.labels() == {1: None, 2: None}


class TestMatchDelta:
    def test_sign(self):
        m = MatchSubgraph((1, 2), frozenset({(1, 2)}))
        assert MatchDelta(1, MatchStatus.NEW, m).sign() == 1
        assert MatchDelta(1, MatchStatus.REM, m).sign() == -1

    def test_predicates(self):
        m = MatchSubgraph((1, 2), frozenset({(1, 2)}))
        d = MatchDelta(1, MatchStatus.NEW, m)
        assert d.is_new() and not d.is_rem()

    def test_window_stats_count_new_and_rem_from_one_list(self):
        m = MatchSubgraph((1, 2), frozenset({(1, 2)}))
        statuses = [MatchStatus.NEW, MatchStatus.REM, MatchStatus.NEW, MatchStatus.NEW]
        deltas = [MatchDelta(7, status, m) for status in statuses]
        assert WindowStats.from_deltas(7, 5, deltas, 0.25) == WindowStats(7, 5, 3, 1, 0.25)
        assert WindowStats.from_deltas(8, 2, [], 0.0) == WindowStats(8, 2)


class TestMetrics:
    def test_work_units_positive(self):
        m = Metrics(filter_calls=2, expansions=1)
        assert m.work_units() == 2 * 2.0 + 3.0

    def test_merge(self):
        a = Metrics(filter_calls=1, emits=2, filter_seconds=1.0)
        b = Metrics(filter_calls=3, emits=1, filter_seconds=0.5)
        a.merge(b)
        assert a.filter_calls == 4 and a.emits == 3
        assert a.filter_seconds == pytest.approx(1.5)

    def test_merge_sums_expansions_per_depth(self):
        a = Metrics(depth_expansions=[0, 0, 0, 2])
        b = Metrics(depth_expansions=[0, 0, 0, 1, 4])
        a.merge(b)
        assert a.depth_expansions == [0, 0, 0, 3, 4]
        assert b.depth_expansions == [0, 0, 0, 1, 4]

    def test_counts_is_one_flat_tuple_of_ints(self):
        m = Metrics(filter_calls=3, filter_passes=1, depth_expansions=[0, 0, 0, 5])
        assert m.counts() == (3, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5)

    def test_breakdown_sums_to_total(self):
        m = Metrics(
            filter_seconds=1.0,
            match_seconds=0.5,
            can_expand_seconds=0.25,
        )
        b = m.breakdown(3.0)
        assert b["other"] == pytest.approx(1.25)
        assert sum(b.values()) == pytest.approx(3.0)

    def test_breakdown_never_negative(self):
        m = Metrics(filter_seconds=5.0)
        assert m.breakdown(1.0)["other"] == 0.0

    def test_reset(self):
        m = Metrics(filter_calls=5, timing_enabled=True)
        m.reset()
        assert m.filter_calls == 0
        assert m.timing_enabled


class TestShardMap:
    def test_deterministic(self):
        s = ShardMap(8)
        assert s.shard_of(42) == s.shard_of(42)

    def test_in_range(self):
        s = ShardMap(8)
        assert all(0 <= s.shard_of(v) < 8 for v in range(1000))

    def test_spread(self):
        s = ShardMap(8)
        shards = {s.shard_of(v) for v in range(100)}
        assert len(shards) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap(0)


class TestAccessStats:
    def test_record_and_reset(self):
        st = AccessStats()
        st.record(0)
        st.record(0)
        st.record(1)
        assert st.total == 3
        assert st.per_shard == {0: 2, 1: 1}
        st.reset()
        assert st.total == 0

    def test_imbalance(self):
        st = AccessStats()
        assert st.imbalance() == 1.0
        st.record(0)
        st.record(0)
        st.record(1)
        # legacy construction (no shard count): mean over touched shards
        assert st.imbalance() == pytest.approx(2 / 1.5)

    def test_imbalance_counts_untouched_shards(self):
        st = AccessStats(num_shards=4)
        assert st.imbalance() == 1.0
        st.record(0)
        st.record(0)
        st.record(1)
        # mean = 3/4 over ALL shards, not 3/2 over the touched ones
        assert st.imbalance() == pytest.approx(2 / (3 / 4))

    def test_imbalance_single_hot_shard_is_maximal(self):
        st = AccessStats(num_shards=8)
        for _ in range(8):
            st.record(3)
        # one shard takes everything: max/mean == num_shards
        assert st.imbalance() == pytest.approx(8.0)

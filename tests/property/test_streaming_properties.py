"""Property-based tests for the streaming substrate and dataflow."""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dataflow.stream import Record, Stream
from repro.graph.adjacency import AdjacencyGraph
from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import Update

SETTINGS = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def op_sequences(draw, n=6, length=30):
    possible = list(itertools.combinations(range(n), 2))
    ops = []
    present = set()
    for _ in range(length):
        e = draw(st.sampled_from(possible))
        if e in present and draw(st.booleans()):
            present.discard(e)
            ops.append(Update.delete_edge(*e))
        elif e not in present:
            present.add(e)
            ops.append(Update.add_edge(*e))
    return ops, present


class TestIngressProperties:
    @SETTINGS
    @given(op_sequences(), st.sampled_from([1, 2, 3, 5, 100]))
    def test_store_state_equals_replayed_ops(self, seq, window):
        ops, present = seq
        store = MultiVersionStore()
        ingress = IngressNode(store, window_size=window)
        ingress.submit_many(ops)
        ingress.flush()
        final = set(store.edges_at(store.latest_timestamp))
        assert final == present

    @SETTINGS
    @given(op_sequences(), st.sampled_from([1, 3, 100]))
    def test_queue_replay_reconstructs_store(self, seq, window):
        """Applying the queued edge updates to an empty graph gives the
        same final graph — the queue is a complete, consistent log."""
        ops, present = seq
        store = MultiVersionStore()
        queue = WorkQueue()
        ingress = IngressNode(store, queue, window_size=window)
        ingress.submit_many(ops)
        ingress.flush()
        replay = AdjacencyGraph()
        while True:
            item = queue.poll()
            if item is None:
                break
            queue.ack(item.offset)
            if item.update.added:
                assert replay.add_edge(item.update.u, item.update.v)
            else:
                assert replay.remove_edge(item.update.u, item.update.v)
        assert set(replay.edges()) == present

    @SETTINGS
    @given(op_sequences())
    def test_gc_preserves_visible_state(self, seq):
        ops, present = seq
        store = MultiVersionStore()
        ingress = IngressNode(store, window_size=2)
        ingress.submit_many(ops)
        ingress.flush()
        ts = store.latest_timestamp
        before = set(store.edges_at(ts))
        store.reclaim(ts)
        assert set(store.edges_at(ts)) == before


class TestSnapshotMonotonicity:
    @SETTINGS
    @given(op_sequences(length=20), st.sampled_from([1, 2, 4]))
    def test_every_snapshot_is_consistent(self, seq, window):
        """Each snapshot ts equals replaying windows 1..ts onto a set."""
        ops, present = seq
        store = MultiVersionStore()
        queue = WorkQueue()
        ingress = IngressNode(store, queue, window_size=window)
        ingress.submit_many(ops)
        ingress.flush()
        by_ts = {}
        while True:
            item = queue.poll()
            if item is None:
                break
            queue.ack(item.offset)
            by_ts.setdefault(item.timestamp, []).append(item.update)
        state = set()
        for ts in range(1, store.latest_timestamp + 1):
            for upd in by_ts.get(ts, []):
                if upd.added:
                    state.add(upd.key)
                else:
                    state.discard(upd.key)
            assert set(store.edges_at(ts)) == state


class TestDataflowProperties:
    @SETTINGS
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.sampled_from([1, -1])),
            max_size=40,
        )
    )
    def test_grouped_count_equals_recompute(self, events):
        """Incremental GROUPBY.COUNT equals recomputation from the net
        multiset, whenever the stream never retracts below zero."""
        net = {}
        valid = []
        for value, sign in events:
            if sign < 0 and net.get(value, 0) <= 0:
                continue  # skip invalid retraction
            net[value] = net.get(value, 0) + sign
            valid.append((value, sign))
        s = Stream.source()
        counts = s.group_by(lambda x: x).count()
        for value, sign in valid:
            s.push(Record(1, sign, value))
        expected = {k: v for k, v in net.items() if v != 0}
        assert counts.state() == expected

    @SETTINGS
    @given(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=25)
    )
    def test_join_equals_cartesian_per_key(self, pairs):
        left_values = [("k", f"L{a}") for a, _ in pairs]
        right_values = [("k", f"R{b}") for _, b in pairs]
        left, right = Stream.source(), Stream.source()
        joined = left.join(right, key=lambda x: x[0]).to_list()
        for lv in left_values:
            left.push(Record(1, 1, lv))
        for rv in right_values:
            right.push(Record(1, 1, rv))
        net = joined.net_values()
        # expected multiplicity: count(l) * count(r) per pair
        from collections import Counter

        lc, rc = Counter(left_values), Counter(right_values)
        expected = {}
        for lv, ln in lc.items():
            for rv, rn in rc.items():
                expected[(lv, rv)] = ln * rn
        assert net == expected

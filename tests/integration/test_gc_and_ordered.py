"""Integration: garbage collection under load, timestamp-ordered output, watermarks."""

import pytest

from repro.apps import CliqueMining
from repro.apps.fsm import FrequentSubgraphMining
from repro.core.engine import collect_matches
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.runtime.session import StreamingSession
from repro.types import Update


class TestGCUnderLoad:
    def test_gc_after_processing_does_not_change_results(self):
        g = erdos_renyi(15, 40, seed=30)
        edges = shuffled_edges(g, seed=1)
        session = StreamingSession(
            CliqueMining(3, min_size=3), window_size=3, gc_enabled=True
        )
        # interleave adds and deletes to generate tombstones
        for i, (u, v) in enumerate(edges):
            session.submit(Update.add_edge(u, v))
            if i % 4 == 3:
                du, dv = edges[i - 2]
                session.submit(Update.delete_edge(du, dv))
                session.flush()  # process so the watermark advances
        session.flush()
        live = collect_matches(session.deltas())
        # recompute from the final snapshot
        final = session.snapshot()
        from repro.core.engine import TesseractEngine

        expected = collect_matches(
            TesseractEngine.run_static(final, CliqueMining(3, min_size=3))
        )
        assert live == expected
        assert session.ingress.gc_reclaimed >= 0

    def test_explicit_gc_reduces_memory(self):
        session = StreamingSession(CliqueMining(3), window_size=1)
        for i in range(20):
            session.submit(Update.add_edge(1, 2 + i))
        session.flush()
        for i in range(20):
            session.submit(Update.delete_edge(1, 2 + i))
        session.flush()
        before = session.store.memory_items()
        reclaimed = session.store.reclaim(session.queue.low_watermark()).reclaimed
        assert reclaimed == 20
        assert session.store.memory_items() < before


    def test_tombstones_and_deletion_log_stay_flat_over_500_windows(self):
        """With reclamation on, what a long stream retains is one window's
        deletions: neither the store nor its deletion log grows."""
        import random

        rng = random.Random(4)
        window, n = 4, 14
        absent = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(absent)
        present = []
        updates = []
        for _ in range(500 * window):
            if present and (not absent or rng.random() < 0.5):
                edge = present.pop(rng.randrange(len(present)))
                absent.insert(rng.randrange(len(absent) + 1), edge)
                updates.append(Update.delete_edge(*edge))
            else:
                edge = absent.pop()
                present.append(edge)
                updates.append(Update.add_edge(*edge))

        def run(gc_enabled):
            session = StreamingSession(
                CliqueMining(3, min_size=3), window_size=window, gc_enabled=gc_enabled
            )
            retained = []
            for i in range(0, len(updates), window):
                session.process(updates[i : i + window])
                store = session.store
                retained.append((store.tombstone_count(), len(store._deleted)))
            session.close()
            return session, retained

        on, retained = run(True)
        off, unreclaimed = run(False)
        assert on.ingress.windows_applied >= 500  # a delete-then-add is split
        # a closing window reclaims up to the one before it
        assert max(tombstones for tombstones, _ in retained) <= 2 * window
        assert max(logged for _, logged in retained) <= 2 * window
        tombstones, logged = unreclaimed[-1]
        assert tombstones == logged > 500
        assert on.ingress.gc_reclaimed >= tombstones - 2 * window
        assert on.deltas() == off.deltas()


class TestOrderedOutputIntegration:
    def test_fsm_sees_timestamps_in_order_despite_windowing(self):
        g = erdos_renyi(12, 26, seed=31)
        session = StreamingSession(FrequentSubgraphMining(2), window_size=4)
        session.submit_many(
            Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=2)
        )
        session.flush()
        timestamps = [d.timestamp for d in session.deltas()]
        assert timestamps == sorted(timestamps)

    @pytest.mark.parametrize("backend", ["serial", "thread", "simulated"])
    def test_deltas_arrive_in_timestamp_order_on_every_backend(self, backend):
        g = erdos_renyi(12, 30, seed=33)
        edges = shuffled_edges(g, seed=4)
        updates = [Update.add_edge(u, v) for u, v in edges]
        updates += [Update.delete_edge(u, v) for u, v in edges[::3]]
        session = StreamingSession(
            CliqueMining(3, min_size=3), backend, window_size=3, num_workers=2
        )
        session.process(updates)
        timestamps = [d.timestamp for d in session.deltas()]
        assert timestamps == sorted(timestamps)
        assert any(d.is_rem() for d in session.deltas())
        session.close()

    def test_output_stream_sees_the_delta_log_in_order(self):
        g = erdos_renyi(12, 30, seed=34)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=4)
        seen = []
        session.output_stream().for_each(
            lambda r: seen.append((r.timestamp, r.sign, r.value))
        )
        for u, v in shuffled_edges(g, seed=5):
            session.submit(Update.add_edge(u, v))
            session.run_pending()  # publish each closed window as it lands
        session.flush()
        assert seen == [(d.timestamp, d.sign(), d.subgraph) for d in session.deltas()]

    def test_watermark_covers_every_flushed_window(self):
        session = StreamingSession(CliqueMining(3), window_size=2)
        marks = []
        for u, v in [(1, 2), (2, 3), (1, 3), (3, 4), (2, 4)]:
            session.process([Update.add_edge(u, v)])
            marks.append(session.queue.low_watermark())
        assert marks == sorted(marks)
        assert marks[-1] == session.store.latest_timestamp
        assert session.queue.is_drained()

    def test_watermark_matches_queue_state(self):
        session = StreamingSession(CliqueMining(3), window_size=2)
        session.submit(Update.add_edge(1, 2))
        session.submit(Update.add_edge(2, 3))
        session.flush()
        assert session.queue.low_watermark() == session.store.latest_timestamp == 1


class TestMultipleStreams:
    def test_two_output_streams_both_fed(self):
        g = erdos_renyi(12, 30, seed=32)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=5)
        count_a = session.output_stream().count()
        count_b = (
            session.output_stream()
            .filter(lambda sub: 0 in sub.vertices)
            .count()
        )
        session.submit_many(
            Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=3)
        )
        session.flush()
        assert count_a.value() >= count_b.value()
        assert count_a.value() == len(collect_matches(session.deltas()))

    def test_stream_attached_after_data_gets_only_new_batches(self):
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=1)
        early = session.output_stream().count()
        for u, v in [(1, 2), (2, 3), (1, 3)]:
            session.submit(Update.add_edge(u, v))
        session.flush()
        late = session.output_stream().count()
        session.submit(Update.add_edge(3, 4))
        session.submit(Update.add_edge(2, 4))
        session.flush()
        assert early.value() == 2  # both triangles
        assert late.value() == 1  # only the second one

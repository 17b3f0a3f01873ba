"""End-to-end tests of the StreamingSession pipeline (Figure 2).

Crash recovery and exactly-once output live in ``test_fault_session.py``.
"""

from repro.apps import CliqueMining, MotifCounting
from repro.dataflow import MOTIF
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.runtime.session import StreamingSession
from repro.types import Update

from oracles import brute_force_cliques


class TestEndToEnd:
    def test_live_count_matches_static(self):
        g = erdos_renyi(25, 70, seed=13)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=7)
        count = session.output_stream().count()
        session.submit_many(Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=2))
        session.flush()
        assert count.value() == len(brute_force_cliques(g, 3))

    def test_incremental_flushes(self):
        g = erdos_renyi(20, 50, seed=14)
        edges = shuffled_edges(g, seed=3)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=5)
        count = session.output_stream().count()
        half = len(edges) // 2
        session.submit_many(Update.add_edge(u, v) for u, v in edges[:half])
        session.flush()
        mid = count.value()
        session.submit_many(Update.add_edge(u, v) for u, v in edges[half:])
        session.flush()
        assert count.value() == len(brute_force_cliques(g, 3))
        assert mid <= count.value()

    def test_deletion_returns_counts(self):
        g = erdos_renyi(15, 40, seed=15)
        edges = shuffled_edges(g, seed=4)
        session = StreamingSession(CliqueMining(3, min_size=3), window_size=4)
        count = session.output_stream().count()
        session.submit_many(Update.add_edge(u, v) for u, v in edges)
        session.flush()
        full = count.value()
        session.submit_many(Update.delete_edge(u, v) for u, v in edges[:10])
        session.flush()
        partial = count.value()
        session.submit_many(Update.add_edge(u, v) for u, v in edges[:10])
        session.flush()
        assert count.value() == full
        assert partial <= full

    def test_initial_graph_preload(self):
        g = erdos_renyi(15, 40, seed=16)
        session = StreamingSession(
            CliqueMining(3, min_size=3), window_size=4, initial_graph=g
        )
        assert session.snapshot().num_edges() == g.num_edges()

    def test_motif_pipeline_on_session(self):
        g = erdos_renyi(18, 40, seed=17)
        session = StreamingSession(MotifCounting(3, min_size=3), window_size=6)
        motifs = session.output_stream().group_by(MOTIF).count()
        session.submit_many(Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=1))
        session.flush()
        from oracles import brute_force_motif_counts

        assert motifs.state() == brute_force_motif_counts(g, 3)

    def test_metrics_accumulate(self):
        g = erdos_renyi(12, 25, seed=18)
        session = StreamingSession(CliqueMining(3), window_size=5)
        session.submit_many(Update.add_edge(u, v) for u, v in g.sorted_edges())
        session.flush()
        assert session.metrics().filter_calls > 0

    def test_process_mode(self):
        g = erdos_renyi(18, 45, seed=19)
        serial = StreamingSession(CliqueMining(3, min_size=3), window_size=5)
        sc = serial.output_stream().count()
        serial.submit_many(Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=2))
        serial.flush()
        serial.close()
        forked = StreamingSession(
            CliqueMining(3, min_size=3), "process", window_size=5, num_workers=4
        )
        fc = forked.output_stream().count()
        forked.submit_many(Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=2))
        forked.flush()
        forked.close()
        assert fc.value() == sc.value()


class TestOrderedOutput:
    def test_deltas_come_out_in_timestamp_order(self):
        from repro.apps.fsm import FrequentSubgraphMining

        g = erdos_renyi(10, 18, seed=22)
        session = StreamingSession(FrequentSubgraphMining(2), window_size=3)
        session.submit_many(Update.add_edge(u, v) for u, v in shuffled_edges(g, seed=7))
        session.flush()
        deltas = session.deltas()
        timestamps = [d.timestamp for d in deltas]
        assert timestamps == sorted(timestamps)

"""End-to-end FSM over an evolving labeled graph."""

import random

from repro.apps import FrequentSubgraphMining, FSMPipeline
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.canonical import canonical_form
from repro.runtime.session import StreamingSession
from repro.types import Update


def build_labeled_graph(seed=0):
    g = AdjacencyGraph()
    rng = random.Random(seed)
    for v in range(14):
        g.add_vertex(v, label=rng.choice(["A", "B"]))
    edges = set()
    while len(edges) < 24:
        u, v = rng.sample(range(14), 2)
        edges.add((min(u, v), max(u, v)))
    for u, v in sorted(edges):
        g.add_edge(u, v)
    return g


def run_session(graph, threshold, window_size=4):
    session = StreamingSession(FrequentSubgraphMining(3), window_size=window_size)
    fsm = FSMPipeline(
        threshold=threshold,
        snapshot_provider=lambda ts: session.store.as_adjacency(ts),
    )
    for v in sorted(graph.vertices()):
        session.submit(Update.add_vertex(v, graph.vertex_label(v)))
    for u, v in sorted(graph.edges()):
        session.submit(Update.add_edge(u, v))
    session.flush()
    fsm.consume(session.deltas())
    return session, fsm


class TestFSMEndToEnd:
    def test_supports_match_recomputation(self):
        """Incremental MNI supports equal recomputing from the final graph."""
        g = build_labeled_graph(seed=1)
        session, fsm = run_session(g, threshold=3)
        # recompute supports from scratch: run FSM statically
        from repro.core.engine import TesseractEngine

        deltas = TesseractEngine.run_static(g, FrequentSubgraphMining(3))
        scratch = FSMPipeline(threshold=3)
        scratch.consume(deltas)
        assert fsm.all_supports() == scratch.all_supports()

    def test_threshold_events_fire_in_order(self):
        g = build_labeled_graph(seed=2)
        session, fsm = run_session(g, threshold=4)
        timestamps = [e.timestamp for e in fsm.events]
        assert timestamps == sorted(timestamps)

    def test_deletions_reduce_support(self):
        g = build_labeled_graph(seed=3)
        session = StreamingSession(FrequentSubgraphMining(2), window_size=4)
        fsm = FSMPipeline(threshold=1000)  # never frequent: pure support test
        for v in sorted(g.vertices()):
            session.submit(Update.add_vertex(v, g.vertex_label(v)))
        edges = sorted(g.edges())
        for u, v in edges:
            session.submit(Update.add_edge(u, v))
        session.flush()
        fsm.consume(session.deltas())
        full_supports = fsm.all_supports()
        # delete a third of the edges
        for u, v in edges[::3]:
            session.submit(Update.delete_edge(u, v))
        session.flush()
        fsm.consume(session.deltas()[len([d for d in session.deltas()]):])
        # simpler: rebuild from the full stream
        fsm2 = FSMPipeline(threshold=1000)
        fsm2.consume(session.deltas())
        remaining = fsm2.all_supports()
        edge_forms = [f for f in remaining if f.num_vertices == 2]
        assert edge_forms
        for f in edge_forms:
            assert remaining[f] <= full_supports.get(f, 0)

    def test_rematerialization_not_duplicated(self):
        """After a pattern crosses the threshold, already-emitted matches
        are not emitted twice (remat only covers discarded ones)."""
        g = AdjacencyGraph()
        for i in range(3):
            g.add_vertex(2 * i, label="a")
            g.add_vertex(2 * i + 1, label="b")
        session = StreamingSession(FrequentSubgraphMining(2), window_size=1)
        fsm = FSMPipeline(
            threshold=2,
            snapshot_provider=lambda ts: session.store.as_adjacency(ts),
        )
        for v in sorted(g.vertices()):
            session.submit(Update.add_vertex(v, g.vertex_label(v)))
        for i in range(3):
            session.submit(Update.add_edge(2 * i, 2 * i + 1))
        session.flush()
        fsm.consume(session.deltas())
        ab = canonical_form(2, [(0, 1)], labels=["a", "b"])
        emitted_ab = [
            d
            for d in fsm.emitted
            if d.is_new() and len(d.subgraph.vertices) == 2
        ]
        identities = [d.subgraph.identity for d in emitted_ab]
        assert len(identities) == len(set(identities)) == 3

"""Directed-graph mining end to end."""

import itertools
import random

import pytest

from repro.apps.directed import CyclicTriads, FeedForwardLoops
from repro.core.engine import TesseractEngine, collect_matches
from repro.core.stesseract import STesseractEngine
from repro.graph.adjacency import AdjacencyGraph
from repro.runtime.backend import BACKEND_NAMES
from repro.runtime.session import StreamingSession
from repro.types import Update


def ffl_graph():
    """a=1 regulates b=2 and c=3; b regulates c."""
    g = AdjacencyGraph()
    g.add_edge(1, 2, direction="fwd")  # 1 -> 2
    g.add_edge(2, 3, direction="fwd")  # 2 -> 3
    g.add_edge(1, 3, direction="fwd")  # 1 -> 3
    return g


def cycle_graph():
    g = AdjacencyGraph()
    g.add_edge(1, 2, direction="fwd")  # 1 -> 2
    g.add_edge(2, 3, direction="fwd")  # 2 -> 3
    g.add_edge(1, 3, direction="rev")  # 3 -> 1
    return g


class TestDirectedPrimitives:
    def test_has_directed_edge(self):
        g = AdjacencyGraph()
        g.add_edge(5, 2, direction="fwd")  # 5 -> 2, normalized as (2,5) rev
        assert g.has_directed_edge(5, 2)
        assert not g.has_directed_edge(2, 5)
        g.add_edge(7, 8)  # undirected
        assert g.has_directed_edge(7, 8) and g.has_directed_edge(8, 7)
        g.add_edge(1, 9, direction="both")
        assert g.has_directed_edge(1, 9) and g.has_directed_edge(9, 1)

    def test_direction_survives_store_roundtrip(self):
        from repro.store.mvstore import MultiVersionStore

        g = ffl_graph()
        store = MultiVersionStore.from_adjacency(g, ts=1)
        back = store.as_adjacency(1)
        for u, v in g.edges():
            assert back.edge_direction(u, v) == g.edge_direction(u, v)

    def test_invalid_direction_rejected(self):
        from repro.types import normalize_direction

        with pytest.raises(ValueError):
            normalize_direction(1, 2, "sideways")

    def test_normalization_flips_for_reversed_endpoints(self):
        from repro.types import normalize_direction

        assert normalize_direction(5, 2, "fwd") == "rev"  # 5->2 == (2,5) rev
        assert normalize_direction(2, 5, "fwd") == "fwd"
        assert normalize_direction(5, 2, "both") == "both"


class TestFFLMining:
    def test_ffl_found(self):
        live = collect_matches(TesseractEngine.run_static(ffl_graph(), FeedForwardLoops()))
        assert len(live) == 1

    def test_cycle_is_not_ffl(self):
        live = collect_matches(TesseractEngine.run_static(cycle_graph(), FeedForwardLoops()))
        assert live == set()

    def test_cycle_found_by_cyclic_triads(self):
        assert len(collect_matches(
            TesseractEngine.run_static(cycle_graph(), CyclicTriads())
        )) == 1
        assert collect_matches(
            TesseractEngine.run_static(ffl_graph(), CyclicTriads())
        ) == set()

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize(
        "graph, app",
        [(ffl_graph, FeedForwardLoops), (cycle_graph, CyclicTriads)],
        ids=["ffl", "cyclic-triad"],
    )
    def test_session_static_run_reads_directions(self, graph, app, backend):
        """The pipeline's static mode submits each edge with its direction,
        so it finds what the engine's finds, on every backend."""
        want = TesseractEngine.run_static(graph(), app())
        assert len(want) == 1
        assert StreamingSession.run_static(graph(), app(), backend) == want

    def test_undirected_triangle_matches_neither(self):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3)])
        assert collect_matches(TesseractEngine.run_static(g, FeedForwardLoops())) == set()
        assert collect_matches(TesseractEngine.run_static(g, CyclicTriads())) == set()

    def test_stesseract_agrees(self):
        g = self.random_directed_graph(seed=1)
        a = collect_matches(TesseractEngine.run_static(g, FeedForwardLoops()))
        b = collect_matches(STesseractEngine(FeedForwardLoops()).run(g))
        assert a == b

    @staticmethod
    def random_directed_graph(seed=0, n=15, m=40):
        rng = random.Random(seed)
        g = AdjacencyGraph()
        for v in range(n):
            g.add_vertex(v)
        added = 0
        while added < m:
            u, v = rng.sample(range(n), 2)
            if g.add_edge(u, v, direction=rng.choice(["fwd", "rev", "both", None])):
                added += 1
        return g

    def test_against_brute_force(self):
        g = self.random_directed_graph(seed=2)
        live = collect_matches(TesseractEngine.run_static(g, FeedForwardLoops()))
        expected = set()
        for combo in itertools.combinations(sorted(g.vertices()), 3):
            x, y, z = combo
            if not (g.has_edge(x, y) and g.has_edge(y, z) and g.has_edge(x, z)):
                continue
            # brute force: try all assignments a->b->c with a->c, no biarcs
            pairs = [(x, y), (y, z), (x, z)]
            if any(
                g.has_directed_edge(u, v) and g.has_directed_edge(v, u)
                for u, v in pairs
            ):
                continue
            for a, b, c in itertools.permutations(combo):
                if (
                    g.has_directed_edge(a, b)
                    and g.has_directed_edge(b, c)
                    and g.has_directed_edge(a, c)
                    and not g.has_directed_edge(b, a)
                    and not g.has_directed_edge(c, b)
                    and not g.has_directed_edge(c, a)
                ):
                    edges = frozenset(
                        (min(u, v), max(u, v)) for u, v in pairs
                    )
                    expected.add((frozenset(combo), edges))
                    break
        assert live == expected


class TestDirectedEvolving:
    def test_closing_arc_creates_ffl(self):
        g = AdjacencyGraph()
        g.add_edge(1, 2, direction="fwd")
        g.add_edge(2, 3, direction="fwd")
        session = StreamingSession(FeedForwardLoops(), window_size=5, initial_graph=g)
        count = session.output_stream().count()
        session.submit(Update.add_edge(1, 3, direction="fwd"))
        session.flush()
        assert count.value() == 1

    def test_wrong_direction_creates_cycle_not_ffl(self):
        g = AdjacencyGraph()
        g.add_edge(1, 2, direction="fwd")
        g.add_edge(2, 3, direction="fwd")
        session = StreamingSession(FeedForwardLoops(), window_size=5, initial_graph=g)
        session.submit(Update.add_edge(1, 3, direction="rev"))  # 3 -> 1
        session.flush()
        assert session.deltas() == []

    def test_direction_roundtrip_through_full_system(self):
        session = StreamingSession(CyclicTriads(), window_size=5)
        count = session.output_stream().count()
        session.submit(Update.add_edge(1, 2, direction="fwd"))
        session.submit(Update.add_edge(2, 3, direction="fwd"))
        session.submit(Update.add_edge(1, 3, direction="rev"))
        session.flush()
        assert count.value() == 1
        # removing one arc retracts the cycle
        session.submit(Update.delete_edge(2, 3))
        session.flush()
        assert count.value() == 0

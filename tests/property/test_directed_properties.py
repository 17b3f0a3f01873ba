"""Property tests for directed-edge support."""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.directed import CyclicTriads, FeedForwardLoops
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.adjacency import AdjacencyGraph
from repro.runtime.session import StreamingSession
from repro.types import Update, normalize_direction

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DIRECTIONS = [None, "fwd", "rev", "both"]


@st.composite
def directed_graphs(draw, max_vertices=7, max_edges=12):
    n = draw(st.integers(min_value=3, max_value=max_vertices))
    possible = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(possible), max_size=max_edges, unique=True))
    g = AdjacencyGraph()
    for v in range(n):
        g.add_vertex(v)
    for u, v in chosen:
        g.add_edge(u, v, direction=draw(st.sampled_from(DIRECTIONS)))
    return g


class TestNormalization:
    @SETTINGS
    @given(
        st.integers(0, 50),
        st.integers(0, 50),
        st.sampled_from(DIRECTIONS),
    )
    def test_normalize_is_involution_consistent(self, u, v, direction):
        if u == v:
            return
        norm = normalize_direction(u, v, direction)
        # re-normalizing from the normalized endpoint order is identity
        a, b = (u, v) if u <= v else (v, u)
        assert normalize_direction(a, b, norm) == norm
        # and normalizing from the flipped order flips fwd/rev
        flipped = normalize_direction(v, u, direction)
        if direction in ("fwd", "rev"):
            assert {norm, flipped} == {"fwd", "rev"}
        else:
            assert norm == flipped == direction


class TestDirectedSemantics:
    @SETTINGS
    @given(directed_graphs())
    def test_arc_semantics_consistent(self, g):
        for u, v in g.edges():
            fwd = g.has_directed_edge(u, v)
            rev = g.has_directed_edge(v, u)
            direction = g.edge_direction(u, v)
            if direction is None or direction == "both":
                assert fwd and rev
            else:
                assert fwd != rev  # exactly one way

    @SETTINGS
    @given(directed_graphs())
    def test_incremental_ffl_matches_static(self, g):
        """Streaming the directed graph through the session equals a static
        run on the final graph, for a direction-sensitive algorithm."""
        static = collect_matches(
            TesseractEngine.run_static(g, FeedForwardLoops())
        )
        session = StreamingSession(FeedForwardLoops(), window_size=3)
        for u, v in sorted(g.edges()):
            direction = g.edge_direction(u, v)
            session.submit(Update.add_edge(u, v, direction=direction))
        session.flush()
        assert collect_matches(session.deltas()) == static

    @SETTINGS
    @given(directed_graphs(max_vertices=6, max_edges=9))
    def test_ffl_and_cycle_are_disjoint(self, g):
        ffl = collect_matches(TesseractEngine.run_static(g, FeedForwardLoops()))
        cyc = collect_matches(TesseractEngine.run_static(g, CyclicTriads()))
        assert not ({vs for vs, _ in ffl} & {vs for vs, _ in cyc})

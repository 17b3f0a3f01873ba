"""Integration test reproducing the paper's Figure 1 end to end."""

from repro import TesseractEngine
from repro.apps import GraphKeywordSearch
from repro.core.engine import collect_matches
from repro.graph.datasets import figure1_graph, figure1_updates
from repro.runtime.session import StreamingSession


ALG = lambda: GraphKeywordSearch(["orange", "green", "blue"], k=5)

BEFORE = {(1, 2, 3, 4), (2, 3, 6, 8), (2, 6, 7, 8)}
AFTER = {(1, 2, 3), (1, 2, 5, 7), (2, 3, 6, 8), (2, 5, 6, 7, 8)}
REMOVED = {(1, 2, 3, 4), (2, 6, 7, 8)}
CREATED = {(1, 2, 3), (1, 2, 5, 7), (2, 5, 6, 7, 8)}


def vsets(matches):
    return {tuple(sorted(vs)) for vs, _ in matches}


class TestFigure1:
    def test_before_matches(self):
        live = collect_matches(TesseractEngine.run_static(figure1_graph(), ALG()))
        assert vsets(live) == BEFORE

    @staticmethod
    def mine_updates(window_size):
        """Figure 1's updates through the pipeline, over its graph."""
        session = StreamingSession(
            ALG(), window_size=window_size, initial_graph=figure1_graph()
        )
        try:
            return session.process(figure1_updates())
        finally:
            session.close()

    def test_update_deltas_exactly_as_paper(self):
        deltas = self.mine_updates(window_size=100)
        rems = {tuple(sorted(d.subgraph.vertices)) for d in deltas if d.is_rem()}
        news = {tuple(sorted(d.subgraph.vertices)) for d in deltas if d.is_new()}
        assert rems == REMOVED
        assert news == CREATED

    def test_after_state_matches(self):
        session = StreamingSession(ALG(), window_size=3, initial_graph=figure1_graph())
        # prime the initial match set by re-running statically instead:
        session.submit_many(figure1_updates())
        session.flush()
        final = collect_matches(
            TesseractEngine.run_static(session.snapshot(), ALG())
        )
        assert vsets(final) == AFTER

    def test_single_update_windows_same_net_result(self):
        deltas = self.mine_updates(window_size=1)
        net = {}
        for d in deltas:
            key = tuple(sorted(d.subgraph.vertices))
            net[key] = net.get(key, 0) + d.sign()
        assert {k for k, v in net.items() if v > 0} == CREATED
        assert {k for k, v in net.items() if v < 0} == REMOVED

"""Unit tests for the STesseract static-optimized engine."""

import pytest

from repro.apps import CliqueMining, GraphKeywordSearch, MotifCounting
from repro.apps.fsm import FrequentSubgraphMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.core.stesseract import STesseractEngine
from repro.graph.generators import erdos_renyi
from scenarios import UnvetoedCliqueMining


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_tesseract_static_run(self, seed):
        g = erdos_renyi(15, 35, seed=seed)
        alg = CliqueMining(4, min_size=3)
        incremental = collect_matches(TesseractEngine.run_static(g, alg))
        static = collect_matches(STesseractEngine(alg).run(g))
        assert incremental == static

    def test_motifs_agree(self):
        g = erdos_renyi(12, 25, seed=7)
        alg = MotifCounting(3)
        a = collect_matches(TesseractEngine.run_static(g, alg))
        b = collect_matches(STesseractEngine(alg).run(g))
        assert a == b

    def test_labeled_gks(self, figure1):
        alg = GraphKeywordSearch(["orange", "green", "blue"], k=5)
        a = collect_matches(TesseractEngine.run_static(figure1, alg))
        b = collect_matches(STesseractEngine(alg).run(figure1))
        assert a == b
        assert len(a) == 3


class TestRestrictions:
    def test_edge_induced_unsupported(self):
        with pytest.raises(NotImplementedError):
            STesseractEngine(FrequentSubgraphMining(3))


class TestCostAdvantage:
    @pytest.mark.parametrize(
        "alg", [CliqueMining(4, min_size=3), MotifCounting(3)], ids=lambda a: a.name
    )
    def test_fewer_filter_calls_than_dynamic(self, alg):
        """STesseract evaluates one subgraph version instead of two, so it
        must call filter at most as often as the dynamic engine — which
        holds because both engines stop at the same ``max_size`` frontier."""
        from repro.core.metrics import Metrics

        g = erdos_renyi(20, 50, seed=3)
        m_dyn = Metrics()
        TesseractEngine.run_static(g, alg, metrics=m_dyn)
        m_static = Metrics()
        STesseractEngine(alg, metrics=m_static).run(g)
        assert m_static.filter_calls <= m_dyn.filter_calls
        assert m_static.expansions == m_dyn.expansions
        assert m_static.emits == m_dyn.emits


@pytest.mark.parametrize("seed", range(3))
def test_the_veto_leaves_the_unvetoed_twin_s_matches_and_counts(seed):
    """STesseract rejects a clique child on its row as ``Explorer`` does,
    and counts it as the ``filter`` call that rejects it."""
    from repro.core.metrics import Metrics

    g = erdos_renyi(20, 60, seed=seed)
    runs = []
    for alg in (CliqueMining(4, min_size=3), UnvetoedCliqueMining(4, min_size=3)):
        metrics = Metrics()
        matches = collect_matches(STesseractEngine(alg, metrics=metrics).run(g))
        runs.append((matches, metrics.counts()))
    assert runs[0] == runs[1]
    assert runs[0][0]

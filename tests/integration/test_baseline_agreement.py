"""Cross-system agreement: all five systems produce identical match sets."""

import pytest

from repro.apps import CliqueMining, MotifCounting, count_motifs
from repro.baselines import ArabesqueModel, DeltaBigJoin, FractalModel, Peregrine
from repro.core.engine import TesseractEngine, collect_matches
from repro.core.stesseract import STesseractEngine
from repro.graph.generators import erdos_renyi, barabasi_albert, shuffled_edges
from repro.graph.pattern import Pattern


@pytest.fixture(scope="module")
def graph():
    return barabasi_albert(60, 4, seed=23)


class TestCliqueAgreement:
    @pytest.mark.parametrize("k", [3, 4])
    def test_all_systems_agree(self, graph, k):
        alg = CliqueMining(k, min_size=k)
        tesseract = collect_matches(TesseractEngine.run_static(graph, alg))
        stesseract = collect_matches(STesseractEngine(alg).run(graph))
        fractal = collect_matches(FractalModel(alg).run(graph).matches)
        arabesque = collect_matches(ArabesqueModel(alg).run(graph).matches)
        peregrine = Peregrine.for_cliques(k).materialize(graph)
        pere_ids = {(frozenset(m.vertices), m.edges) for m in peregrine.matches}
        dbj = DeltaBigJoin(Pattern.clique(k))
        stream = [(e, True) for e in shuffled_edges(graph, seed=9)]
        bigjoin = collect_matches(dbj.process_stream(stream))
        assert tesseract == stesseract == fractal == arabesque
        assert {frozenset(vs) for vs, _ in tesseract} == {
            frozenset(vs) for vs, _ in pere_ids
        }
        assert {frozenset(vs) for vs, _ in bigjoin} == {
            frozenset(vs) for vs, _ in tesseract
        }


class TestMotifAgreement:
    def test_motif_counts_consistent(self, graph):
        alg = MotifCounting(3, min_size=3)
        deltas = TesseractEngine.run_static(graph, alg)
        tess = count_motifs(deltas)
        pere = Peregrine.for_motifs(3).count(graph)
        pere_by_form = {p.canonical(): n for p, n in pere.counts.items()}
        assert pere_by_form == tess


class TestEvolvingAgreement:
    def test_tesseract_vs_bigjoin_on_mixed_stream(self):
        g = erdos_renyi(18, 50, seed=24)
        edges = shuffled_edges(g, seed=10)
        stream = [(e, True) for e in edges] + [(e, False) for e in edges[:15]]

        from repro.runtime.session import StreamingSession
        from repro.types import Update

        session = StreamingSession(CliqueMining(3, min_size=3), window_size=1)
        for e, added in stream:
            session.submit(
                Update.add_edge(*e) if added else Update.delete_edge(*e)
            )
        session.flush()
        tess_live = collect_matches(session.deltas())

        dbj = DeltaBigJoin(Pattern.clique(3))
        bigjoin_live = collect_matches(dbj.process_stream(stream))
        assert {frozenset(vs) for vs, _ in tess_live} == {
            frozenset(vs) for vs, _ in bigjoin_live
        }

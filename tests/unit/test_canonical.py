"""Unit tests for canonical labeling (the motif library)."""

import itertools
import random

import pytest

from repro.graph.canonical import (
    SHAPE_TABLE_SIZE,
    _canonical_cached,
    _triangle_form,
    automorphism_orbits,
    canonical_form,
    canonical_form_with_mapping,
    connected_motifs,
    is_isomorphic,
    motif_of,
)
from repro.types import MatchSubgraph, edge_key


class TestCanonicalForm:
    def test_triangle_invariant_under_relabeling(self):
        base = canonical_form(3, [(0, 1), (1, 2), (0, 2)])
        for perm in itertools.permutations(range(3)):
            edges = [(perm[0], perm[1]), (perm[1], perm[2]), (perm[0], perm[2])]
            assert canonical_form(3, edges) == base

    def test_path_vs_triangle_distinct(self):
        path = canonical_form(3, [(0, 1), (1, 2)])
        tri = canonical_form(3, [(0, 1), (1, 2), (0, 2)])
        assert path != tri

    def test_all_relabelings_of_4_graphs_agree(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
        base = canonical_form(4, edges)
        for perm in itertools.permutations(range(4)):
            permuted = [(perm[i], perm[j]) for i, j in edges]
            assert canonical_form(4, permuted) == base

    def test_labels_distinguish(self):
        a = canonical_form(2, [(0, 1)], labels=["x", "y"])
        b = canonical_form(2, [(0, 1)], labels=["x", "x"])
        assert a != b

    def test_labeled_symmetric_relabeling(self):
        a = canonical_form(2, [(0, 1)], labels=["x", "y"])
        b = canonical_form(2, [(0, 1)], labels=["y", "x"])
        assert a == b

    def test_empty_graph(self):
        form = canonical_form(0, [])
        assert form.num_vertices == 0
        assert form.num_edges() == 0

    def test_invalid_edge_rejected(self):
        with pytest.raises(ValueError):
            canonical_form(2, [(0, 2)])
        with pytest.raises(ValueError):
            canonical_form(2, [(0, 0)])

    def test_label_length_mismatch(self):
        with pytest.raises(ValueError):
            canonical_form(3, [(0, 1)], labels=["a"])

    def test_degree_sequence(self):
        star = canonical_form(4, [(0, 1), (0, 2), (0, 3)])
        assert star.degree_sequence() == (1, 1, 1, 3)


class TestIsomorphism:
    def test_isomorphic_cycles(self):
        c1 = [(0, 1), (1, 2), (2, 3), (3, 0)]
        c2 = [(0, 2), (2, 1), (1, 3), (3, 0)]
        assert is_isomorphic(4, c1, 4, c2)

    def test_non_isomorphic_same_degree_sequence(self):
        # C6 vs two disjoint triangles: both 2-regular on 6 vertices.
        g1 = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
        g2 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
        d1 = canonical_form(6, g1).degree_sequence()
        d2 = canonical_form(6, g2).degree_sequence()
        assert d1 == d2
        assert not is_isomorphic(6, g1, 6, g2)

    def test_size_mismatch(self):
        assert not is_isomorphic(2, [(0, 1)], 3, [(0, 1)])

    def test_exhaustive_4_vertex_classification(self):
        """Every pair of 4-vertex graphs: canonical equality == brute iso."""
        possible = list(itertools.combinations(range(4), 2))
        graphs = []
        for bits in range(1 << len(possible)):
            edges = [possible[i] for i in range(len(possible)) if bits >> i & 1]
            graphs.append(edges)

        def brute_iso(e1, e2):
            s1, s2 = set(e1), set(e2)
            if len(s1) != len(s2):
                return False
            for perm in itertools.permutations(range(4)):
                mapped = {
                    (perm[i], perm[j]) if perm[i] < perm[j] else (perm[j], perm[i])
                    for i, j in s1
                }
                if mapped == s2:
                    return True
            return False

        import random

        rng = random.Random(0)
        sample = rng.sample(graphs, 20)
        for e1 in sample:
            for e2 in sample:
                expected = brute_iso(e1, e2)
                got = canonical_form(4, e1) == canonical_form(4, e2)
                assert got == expected, (e1, e2)


class TestConnectedMotifs:
    def test_counts_match_oeis(self):
        # Connected graphs on n nodes: 1, 1, 2, 6, 21 (OEIS A001349).
        assert len(connected_motifs(1)) == 1
        assert len(connected_motifs(2)) == 1
        assert len(connected_motifs(3)) == 2
        assert len(connected_motifs(4)) == 6
        assert len(connected_motifs(5)) == 21

    def test_figure4_motifs(self):
        """The six 4-motifs of the paper's Figure 4, by edge count."""
        motifs = connected_motifs(4)
        edge_counts = sorted(m.num_edges() for m in motifs)
        assert edge_counts == [3, 3, 4, 4, 5, 6]

    def test_zero(self):
        assert connected_motifs(0) == []


class TestMapping:
    def test_mapping_is_permutation(self):
        form, mapping = canonical_form_with_mapping(4, [(0, 1), (1, 2), (2, 3)])
        assert sorted(mapping) == [0, 1, 2, 3]

    def test_mapping_preserves_structure(self):
        edges = [(0, 1), (1, 2), (2, 3), (0, 2)]
        form, mapping = canonical_form_with_mapping(4, edges)
        mapped = sorted(
            (mapping[i], mapping[j]) if mapping[i] < mapping[j] else (mapping[j], mapping[i])
            for i, j in edges
        )
        assert tuple(mapped) == form.edges

    def test_mapping_preserves_labels(self):
        labels = ["a", "b", "a"]
        form, mapping = canonical_form_with_mapping(3, [(0, 1), (1, 2)], labels)
        for i, label in enumerate(labels):
            assert form.labels[mapping[i]] == label


    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(edges=[(0, 0)]),  # self-loop: was silently kept
            dict(edges=[(0, 2)]),  # out of range: was a bare IndexError
            dict(edges=[(0, -1)]),  # wrapped around to the last slot
            # label on a missing edge: was ignored
            dict(edges=[(0, 1)], edge_labels={(1, 0): "x", (0, 2): "y"}),
        ],
    )
    def test_rejects_what_canonical_form_rejects(self, kwargs):
        with pytest.raises(ValueError):
            canonical_form(2, **kwargs)
        with pytest.raises(ValueError):
            canonical_form_with_mapping(2, **kwargs)
        with pytest.raises(ValueError):
            canonical_form_with_mapping(-1, [])

    def test_form_and_mapping_come_from_one_search(self):
        args = (4, [(2, 1), (0, 1), (3, 2)], ["a", None, "b", "a"], {(1, 2): "s"})
        form, mapping = canonical_form_with_mapping(*args)
        assert canonical_form(*args) is form
        assert dict(form.edge_labels)[tuple(sorted((mapping[1], mapping[2])))] == "s"


class TestOrbits:
    def test_triangle_single_orbit(self):
        form = canonical_form(3, [(0, 1), (1, 2), (0, 2)])
        assert len(set(automorphism_orbits(form))) == 1

    def test_path3_two_orbits(self):
        form = canonical_form(3, [(0, 1), (1, 2)])
        orbits = automorphism_orbits(form)
        assert len(set(orbits)) == 2  # endpoints vs middle

    def test_star_two_orbits(self):
        form = canonical_form(4, [(0, 1), (0, 2), (0, 3)])
        assert len(set(automorphism_orbits(form))) == 2

    def test_labeled_edge_breaks_symmetry(self):
        form = canonical_form(2, [(0, 1)], labels=["x", "y"])
        assert len(set(automorphism_orbits(form))) == 2
        form2 = canonical_form(2, [(0, 1)], labels=["x", "x"])
        assert len(set(automorphism_orbits(form2))) == 1


class TestMotifOf:
    def test_motif_of_match(self):
        match = MatchSubgraph(
            vertices=(10, 20, 30),
            edges=frozenset({(10, 20), (20, 30), (10, 30)}),
            vertex_labels=("a", "b", "c"),
        )
        assert motif_of(match) == canonical_form(3, [(0, 1), (1, 2), (0, 2)])

    def test_motif_of_with_labels(self):
        match = MatchSubgraph(
            vertices=(10, 20),
            edges=frozenset({(10, 20)}),
            vertex_labels=("a", "b"),
        )
        labeled = motif_of(match, with_labels=True)
        assert labeled.labels == ("a", "b")


def _uncached(n, slot_edges):
    """The canonical search itself, behind both caches."""
    norm = tuple(sorted((i, j) if i < j else (j, i) for i, j in slot_edges))
    return _canonical_cached.__wrapped__(n, norm, (None,) * n)[0]


class TestShapeTable:
    """``motif_of`` without labels answers from ``(n, match.mask)``, the
    match's packed lower triangle."""

    #: graphs on n vertices up to isomorphism (OEIS A000088)
    CLASSES = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    IDS = (17, 3, 11, 8, 29)  # vertex ids in no particular order

    @pytest.mark.parametrize("n", sorted(CLASSES))
    def test_every_graph_under_every_vertex_order(self, n):
        rng = random.Random(n)
        orders = list(itertools.permutations(range(n)))
        possible = list(itertools.combinations(range(n), 2))
        forms = set()
        for r in range(len(possible) + 1):
            for subset in itertools.combinations(possible, r):
                want = _uncached(n, subset)
                forms.add(want)
                edges = frozenset(edge_key(self.IDS[i], self.IDS[j]) for i, j in subset)
                # every order up to n = 4; three drawn per graph at n = 5
                for order in orders if n <= 4 else rng.sample(orders, 3):
                    vertices = tuple(self.IDS[i] for i in order)
                    slot = {i: s for s, i in enumerate(order)}
                    assert motif_of(MatchSubgraph(vertices, edges)) == want
                    assert want == _uncached(n, [(slot[i], slot[j]) for i, j in subset])
        assert len(forms) == self.CLASSES[n]

    def test_every_vertex_order_of_a_motif_keys_one_form_instance(self):
        """The wedge's three masks (one per middle slot) hand a GROUPBY one
        object, so its dict lookup hits on identity."""
        wedges = [
            MatchSubgraph(order, frozenset({(1, 2), (2, 3)}))
            for order in itertools.permutations((1, 2, 3))
        ]
        assert len({wedge.mask for wedge in wedges}) == 3
        assert len({id(motif_of(wedge)) for wedge in wedges}) == 1

    def test_labelled_calls_bypass_the_table(self):
        match = MatchSubgraph(
            (10, 20, 30),
            frozenset({(10, 20), (20, 30)}),
            ("a", "b", "a"),
            (((10, 20), "s"), ((20, 30), "w")),
        )
        plain = motif_of(match)
        before = _triangle_form.cache_info()
        path = [(0, 1), (1, 2)]
        assert motif_of(match, with_labels=True) == canonical_form(3, path, "aba")
        assert motif_of(match, with_edge_labels=True) == canonical_form(
            3, path, edge_labels={(0, 1): "s", (1, 2): "w"}
        )
        assert motif_of(match, True, True) == canonical_form(
            3, path, "aba", {(0, 1): "s", (1, 2): "w"}
        )
        assert _triangle_form.cache_info() == before
        assert motif_of(match) is plain
        assert _triangle_form.cache_info().hits == before.hits + 1

    def test_invalid_matches_are_still_rejected(self):
        with pytest.raises(ValueError):
            motif_of(MatchSubgraph((1, 2), frozenset({(2, 2)})))
        with pytest.raises(KeyError):
            motif_of(MatchSubgraph((1, 2), frozenset({(2, 3)})))

    def test_an_edge_given_in_both_directions_is_one_edge(self):
        """A hand-built match may hold (u, v) and (v, u): both paths agree."""
        path = canonical_form(3, [(0, 1), (1, 2)])
        assert canonical_form(3, [(0, 1), (1, 0), (1, 2), (1, 2)]) is path
        doubled = MatchSubgraph(
            (10, 20, 30),
            frozenset({(10, 20), (20, 10), (20, 30)}),
            ("a", "b", "a"),
        )
        assert motif_of(doubled) == path
        assert motif_of(doubled, with_labels=True) == canonical_form(
            3, [(0, 1), (1, 2)], "aba"
        )

    def test_table_stays_within_its_bound(self):
        assert _triangle_form.cache_info().maxsize == SHAPE_TABLE_SIZE
        rng = random.Random(9)
        n = 9  # 2**36 shapes, nearly all asymmetric: one permutation each
        possible = list(itertools.combinations(range(n), 2))
        shapes = set()
        while len(shapes) < SHAPE_TABLE_SIZE + 200:
            shapes.add(frozenset(e for e in possible if rng.random() < 0.5))
        for edges in shapes:
            motif_of(MatchSubgraph(tuple(range(n)), edges))
        info = _triangle_form.cache_info()
        assert info.currsize == SHAPE_TABLE_SIZE
        # an evicted shape is recomputed, not lost
        triangle = MatchSubgraph((1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)}))
        assert motif_of(triangle) == canonical_form(3, [(0, 1), (1, 2), (0, 2)])

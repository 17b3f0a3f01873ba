"""Unit tests for pattern graphs and symmetry breaking."""

import pytest

from repro.errors import PatternError
from repro.graph.pattern import Pattern


class TestConstruction:
    def test_basic(self):
        p = Pattern(3, [(0, 1), (1, 2)])
        assert p.num_edges() == 2
        assert p.degree(1) == 2

    def test_duplicate_edges_collapsed(self):
        p = Pattern(2, [(0, 1), (1, 0)])
        assert p.num_edges() == 1

    def test_disconnected_rejected(self):
        with pytest.raises(PatternError):
            Pattern(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(PatternError):
            Pattern(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(PatternError):
            Pattern(2, [(0, 5)])

    def test_empty_rejected(self):
        with pytest.raises(PatternError):
            Pattern(0, [])

    def test_labels(self):
        p = Pattern(2, [(0, 1)], labels=["a", "b"])
        assert p.is_labeled()
        assert not Pattern(2, [(0, 1)]).is_labeled()


class TestShapes:
    def test_clique(self):
        p = Pattern.clique(4)
        assert p.num_edges() == 6
        assert all(p.degree(v) == 3 for v in range(4))

    def test_path(self):
        p = Pattern.path(4)
        assert p.num_edges() == 3
        assert sorted(p.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_cycle(self):
        p = Pattern.cycle(5)
        assert p.num_edges() == 5
        assert all(p.degree(v) == 2 for v in range(5))

    def test_cycle_too_small(self):
        with pytest.raises(PatternError):
            Pattern.cycle(2)

    def test_star(self):
        p = Pattern.star(5)
        assert p.degree(0) == 4

    def test_all_motifs_4(self):
        motifs = Pattern.all_motifs(4)
        assert len(motifs) == 6  # the paper's Figure 4

    def test_all_motifs_distinct(self):
        motifs = Pattern.all_motifs(4)
        assert len(set(motifs)) == 6


class TestAutomorphisms:
    def test_clique_automorphisms(self):
        assert len(Pattern.clique(3).automorphisms()) == 6  # S3

    def test_path_automorphisms(self):
        assert len(Pattern.path(3).automorphisms()) == 2  # flip

    def test_cycle_automorphisms(self):
        assert len(Pattern.cycle(4).automorphisms()) == 8  # dihedral D4

    def test_labels_restrict_automorphisms(self):
        p = Pattern(2, [(0, 1)], labels=["a", "b"])
        assert len(p.automorphisms()) == 1

    def test_asymmetric_pattern(self):
        # The smallest asymmetric graph: pendant + triangle + tail.
        p = Pattern(6, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        assert len(p.automorphisms()) == 1


class TestSymmetryBreaking:
    @pytest.mark.parametrize(
        "pattern",
        [
            Pattern.clique(3),
            Pattern.clique(4),
            Pattern.path(3),
            Pattern.path(4),
            Pattern.cycle(4),
            Pattern.cycle(5),
            Pattern.star(4),
        ],
    )
    def test_constraints_admit_exactly_one_per_orbit(self, pattern):
        """Among all automorphic images of any injection, exactly one
        satisfies the symmetry-breaking constraints."""
        constraints = pattern.symmetry_breaking_order()
        autos = pattern.automorphisms()
        n = pattern.num_vertices
        base = tuple(range(100, 100 + n))  # arbitrary distinct vertex ids

        def satisfies(assignment):
            return all(assignment[a] < assignment[b] for a, b in constraints)

        images = []
        for perm in autos:
            assignment = [0] * n
            for slot in range(n):
                assignment[perm[slot]] = base[slot]
            images.append(tuple(assignment))
        assert sum(1 for img in set(images) if satisfies(img)) == 1

    def test_asymmetric_needs_no_constraints(self):
        p = Pattern(6, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
        assert p.symmetry_breaking_order() == []


class TestEquality:
    def test_isomorphic_patterns_equal(self):
        assert Pattern(3, [(0, 1), (1, 2)]) == Pattern(3, [(0, 2), (2, 1)])

    def test_hash_consistent(self):
        a, b = Pattern.clique(3), Pattern(3, [(0, 1), (1, 2), (0, 2)])
        assert hash(a) == hash(b)

    def test_from_canonical_roundtrip(self):
        p = Pattern.cycle(5)
        assert Pattern.from_canonical(p.canonical()) == p

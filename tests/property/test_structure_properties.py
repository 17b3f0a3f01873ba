"""Property-based tests for core data structures and the motif library."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.bitset import BitMatrix
from repro.graph.canonical import (
    automorphism_orbits,
    canonical_form,
    canonical_form_with_mapping,
)
from repro.graph.pattern import Pattern
from repro.graph.subgraph import SubgraphView
from repro.types import MatchSubgraph

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def slot_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = list(itertools.combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return n, edges


@st.composite
def labeled_slot_graphs(draw, max_n=5):
    n, edges = draw(slot_graphs(max_n=max_n))
    labels = draw(
        st.lists(
            st.sampled_from(["a", "b", None]), min_size=n, max_size=n
        )
    )
    return n, edges, labels


def _connected(slots, pairs):
    """Reference connectivity of ``slots`` under ``pairs`` (empty: False)."""
    if not slots:
        return False
    seen = {slots[0]}
    stack = [slots[0]]
    while stack:
        x = stack.pop()
        for i, j in pairs:
            for y in ((j,) if i == x else (i,) if j == x else ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return len(seen) == len(slots)


def _assert_matches_model(m, model):
    n = len(m)
    slots = list(range(n))
    for i in slots:
        full = sum(1 << j for j in slots if (min(i, j), max(i, j)) in model)
        assert m.row(i) == full
        assert m.degree(i) == full.bit_count()
        for j in slots:
            assert m.has_edge(i, j) == bool(full >> j & 1)
        rest = [s for s in slots if s != i]
        kept = [e for e in model if i not in e]
        # one slot left counts as connected, none left does not
        assert m.is_connected_without(i) == _connected(rest, kept)
    assert m.num_edges() == len(model)
    assert list(m.edges()) == sorted(model)
    assert m.is_connected() == _connected(slots, model)
    assert list(m.lower_rows()) == [m.row(i) & ((1 << i) - 1) for i in slots]
    # freeze() reads the stored triangle: vertex ids in no particular order
    verts = [(7 * i + 3) % 11 for i in slots]
    keys = sorted(tuple(sorted((verts[i], verts[j]))) for i, j in model)
    view = SubgraphView(
        verts, m, [str(v % 3) for v in verts], edge_label_fn=lambda u, v: (u, v)
    )
    assert view.freeze() == MatchSubgraph(
        tuple(verts),
        frozenset(keys),
        tuple(str(v % 3) for v in verts),
        tuple((key, key) for key in keys),
    )
    assert SubgraphView(verts, m).freeze() == MatchSubgraph(
        tuple(verts), frozenset(keys), (None,) * n
    )
    twin = BitMatrix([m.row(i) for i in slots])
    assert m.copy() == m and twin == m and hash(twin) == hash(m)
    with pytest.raises(ValueError):
        m.copy().append_row(1 << n)
    if not n:
        with pytest.raises(IndexError):
            m.pop_row()


class TestBitMatrixProperties:
    @SETTINGS
    @given(slot_graphs(), st.randoms(use_true_random=False))
    def test_expand_backtrack_identity(self, graph, rng):
        n, edges = graph
        m = BitMatrix.from_edges(n, iter(edges))
        before = m.copy()
        bits = rng.randrange(1 << n) if n else 0
        m.append_row(bits)
        m.pop_row()
        assert m == before

    @SETTINGS
    @given(slot_graphs())
    def test_connectivity_matches_reference(self, graph):
        n, edges = graph
        m = BitMatrix.from_edges(n, iter(edges))
        assert m.is_connected() == _connected(list(range(n)), edges)

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 4), st.randoms(use_true_random=False))))
    def test_matches_a_set_of_pairs_model(self, ops):
        """Any mix of append/pop/set/clear/copy against a plain set of
        ``(i, j)``, ``i < j`` pairs: every accessor answers from the model,
        whichever triangle the matrix keeps."""
        m = BitMatrix()
        model = set()
        for op, rng in ops:
            n = len(m)
            if op == 0 and n < 7:
                bits = rng.randrange(1 << n)
                m.append_row(bits)
                model |= {(j, n) for j in range(n) if bits >> j & 1}
            elif op == 1 and n:
                m.pop_row()
                model = {(i, j) for i, j in model if j != n - 1}
            elif op in (2, 3) and n >= 2:
                i, j = rng.sample(range(n), 2)
                if op == 2:
                    m.set_edge(i, j)
                    model.add((min(i, j), max(i, j)))
                else:
                    m.clear_edge(i, j)
                    model.discard((min(i, j), max(i, j)))
            elif op == 4:
                m = m.copy()
            _assert_matches_model(m, model)

    @SETTINGS
    @given(slot_graphs())
    def test_edge_count_consistent(self, graph):
        n, edges = graph
        m = BitMatrix.from_edges(n, iter(edges))
        assert m.num_edges() == len(edges)
        assert sorted(m.edges()) == sorted(edges)
        assert sum(m.degree(i) for i in range(n)) == 2 * len(edges)

    @SETTINGS
    @given(slot_graphs(max_n=5))
    def test_is_connected_without_matches_reference(self, graph):
        n, edges = graph
        if n < 2:
            return
        m = BitMatrix.from_edges(n, iter(edges))
        for exclude in range(n):
            rest = [v for v in range(n) if v != exclude]
            sub_edges = [e for e in edges if exclude not in e]
            assert m.is_connected_without(exclude) == _connected(rest, sub_edges)


class TestCanonicalProperties:
    @SETTINGS
    @given(labeled_slot_graphs(), st.randoms(use_true_random=False))
    def test_relabeling_invariance(self, graph, rng):
        n, edges, labels = graph
        base = canonical_form(n, edges, labels)
        perm = list(range(n))
        rng.shuffle(perm)
        new_edges = [(perm[i], perm[j]) for i, j in edges]
        new_labels = [None] * n
        for old, new in enumerate(perm):
            new_labels[new] = labels[old]
        assert canonical_form(n, new_edges, new_labels) == base

    @SETTINGS
    @given(labeled_slot_graphs())
    def test_mapping_is_an_isomorphism(self, graph):
        n, edges, labels = graph
        form, mapping = canonical_form_with_mapping(n, edges, labels)
        assert sorted(mapping) == list(range(n))
        mapped = sorted(
            (mapping[i], mapping[j]) if mapping[i] < mapping[j] else (mapping[j], mapping[i])
            for i, j in edges
        )
        assert tuple(mapped) == form.edges
        for i in range(n):
            assert form.labels[mapping[i]] == labels[i]

    @SETTINGS
    @given(slot_graphs(max_n=5))
    def test_orbits_refine_degree(self, graph):
        n, edges = graph
        if n == 0:
            return
        form = canonical_form(n, edges)
        orbits = automorphism_orbits(form)
        degs = [0] * form.num_vertices
        for i, j in form.edges:
            degs[i] += 1
            degs[j] += 1
        by_orbit = {}
        for v, orbit in enumerate(orbits):
            by_orbit.setdefault(orbit, set()).add(degs[v])
        # vertices in one orbit must share their degree
        assert all(len(ds) == 1 for ds in by_orbit.values())


class TestSymmetryBreakingProperty:
    @SETTINGS
    @given(st.integers(min_value=0, max_value=200))
    def test_random_connected_pattern_constraints(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 5)
        # random connected pattern: spanning tree + extras
        edges = set()
        for v in range(1, n):
            edges.add((rng.randrange(v), v))
        for _ in range(rng.randint(0, 3)):
            a, b = rng.sample(range(n), 2)
            edges.add((min(a, b), max(a, b)))
        p = Pattern(n, sorted(edges))
        constraints = p.symmetry_breaking_order()
        autos = p.automorphisms()
        base = tuple(range(100, 100 + n))
        images = set()
        for perm in autos:
            assignment = [0] * n
            for slot in range(n):
                assignment[perm[slot]] = base[slot]
            images.add(tuple(assignment))
        satisfying = [
            img
            for img in images
            if all(img[a] < img[b] for a, b in constraints)
        ]
        assert len(satisfying) == 1

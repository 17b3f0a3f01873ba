"""Property-based tests for core data structures and the motif library."""

import itertools

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.bitset import BitMatrix
from repro.graph.canonical import (
    automorphism_orbits,
    canonical_form,
    canonical_form_with_mapping,
)
from repro.graph.pattern import Pattern

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
        adj = {i: set() for i in range(n)}
        for i, j in edges:
            adj[i].add(j)
            adj[j].add(i)
        if n == 0:
            assert not m.is_connected()
            return
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        assert m.is_connected() == (len(seen) == n)

    @SETTINGS
    @given(st.lists(st.tuples(st.integers(0, 4), st.randoms(use_true_random=False))))
    def test_running_edge_count_equals_recomputed_popcount(self, ops):
        """``num_edges`` is a running total; it must equal half the popcount
        after any mix of append/pop/set/clear/copy."""
        m = BitMatrix()
        for op, rng in ops:
            n = len(m)
            if op == 0 and n < 8:
                m.append_row(rng.randrange(1 << n))
            elif op == 1 and n:
                m.pop_row()
            elif op in (2, 3) and n >= 2:
                i, j = rng.sample(range(n), 2)
                (m.set_edge if op == 2 else m.clear_edge)(i, j)
            elif op == 4:
                m = m.copy()
            popcount = sum(m.row(i).bit_count() for i in range(len(m)))
            assert m.num_edges() * 2 == popcount
            assert m.num_edges() == sum(1 for _ in m.edges())

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
            adj = {v: set() for v in rest}
            for i, j in sub_edges:
                adj[i].add(j)
                adj[j].add(i)
            seen = {rest[0]}
            stack = [rest[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            expected = len(seen) == n - 1
            assert m.is_connected_without(exclude) == expected


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

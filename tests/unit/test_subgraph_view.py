"""Unit tests for SubgraphView, the object user code sees."""

import pytest

from repro.graph.bitset import BitMatrix
from repro.graph.subgraph import SubgraphView


def make_view(vertices, edges, labels=None):
    index = {v: i for i, v in enumerate(vertices)}
    m = BitMatrix.from_edges(len(vertices), ((index[u], index[v]) for u, v in edges))
    return SubgraphView(list(vertices), m, labels)


class TestStructure:
    def test_len_and_counts(self):
        s = make_view([5, 9, 7], [(5, 9), (9, 7)])
        assert len(s) == 3
        assert s.num_vertices() == 3
        assert s.num_edges() == 2

    def test_vertices_order_preserved(self):
        s = make_view([5, 9, 7], [(5, 9)])
        assert s.vertices() == (5, 9, 7)
        assert list(s) == [5, 9, 7]

    def test_has_edge_by_vertex_id(self):
        s = make_view([5, 9, 7], [(5, 9), (9, 7)])
        assert s.has_edge(9, 5)
        assert not s.has_edge(5, 7)

    def test_degree(self):
        s = make_view([1, 2, 3], [(1, 2), (2, 3)])
        assert s.degree(2) == 2
        assert s.degree(1) == 1

    def test_contains(self):
        s = make_view([1, 2], [(1, 2)])
        assert 1 in s and 3 not in s

    def test_edges_normalized(self):
        s = make_view([9, 2], [(9, 2)])
        assert list(s.edges()) == [(2, 9)]
        assert s.edge_set() == frozenset({(2, 9)})

    def test_matrix_size_mismatch(self):
        with pytest.raises(ValueError):
            SubgraphView([1, 2], BitMatrix([0]))


class TestLabels:
    def test_label_access(self):
        s = make_view([1, 2], [(1, 2)], labels=["red", None])
        assert s.label_of(1) == "red"
        assert s.label_of(2) is None
        assert s.labels() == ("red", None)

    def test_count_label(self):
        s = make_view([1, 2, 3], [(1, 2)], labels=["a", "a", "b"])
        assert s.count_label("a") == 2
        assert s.count_label("b") == 1
        assert s.count_label("z") == 0

    def test_labels_resolve_lazily_through_the_resolver(self):
        reads = []

        def label_fn(v):
            reads.append(v)
            return {1: "a", 2: "b", 3: "a"}[v]

        m = BitMatrix.from_edges(3, iter([(0, 1), (1, 2)]))
        s = SubgraphView([1, 2, 3], m, label_fn=label_fn)
        assert len(s) == 3 and s.num_edges() == 2 and s.is_connected()
        assert reads == []  # structure never costs a label read
        assert s.count_label("a") == 2
        assert s.label_of(2) == "b" and s.labels() == ("a", "b", "a")
        assert s.freeze().vertex_labels == ("a", "b", "a")
        assert reads == [1, 2, 3]  # resolved once, on first use

    def test_unlabeled_view(self):
        s = make_view([1, 2], [(1, 2)])
        assert s.labels() == (None, None)
        assert s.count_label("a") == 0


class TestConnectivity:
    def test_connected(self):
        assert make_view([1, 2, 3], [(1, 2), (2, 3)]).is_connected()

    def test_disconnected(self):
        assert not make_view([1, 2, 3], [(1, 2)]).is_connected()

    def test_connected_without(self):
        s = make_view([1, 2, 3], [(1, 2), (2, 3)])
        assert not s.is_connected_without(2)
        assert s.is_connected_without(1)


class TestFreeze:
    def test_freeze_roundtrip(self):
        s = make_view([3, 1, 2], [(3, 1), (1, 2)], labels=["x", "y", "z"])
        frozen = s.freeze()
        assert frozen.vertices == (3, 1, 2)
        assert frozen.edges == frozenset({(1, 3), (1, 2)})
        assert frozen.vertex_labels == ("x", "y", "z")
        assert frozen.label_of(3) == "x"
        assert frozen.labels() == {3: "x", 1: "y", 2: "z"}

    def test_identity_ignores_order(self):
        a = make_view([1, 2], [(1, 2)]).freeze()
        b = make_view([2, 1], [(1, 2)]).freeze()
        assert a.identity == b.identity
        assert a != b  # but order-preserving equality differs

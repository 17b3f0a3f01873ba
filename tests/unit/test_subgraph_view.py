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

    @pytest.mark.parametrize("source", ["none", "list", "resolver"])
    def test_every_label_source_answers_from_one_vector(self, source):
        """No labels, a list of ``None`` and a resolver answering ``None``
        are the same view: the engine swaps the resolver for no resolver on
        a label-free store, and nothing an algorithm reads may change."""
        m = BitMatrix.from_edges(3, iter([(0, 1), (1, 2)]))
        kwargs = {
            "none": {},
            "list": {"labels": [None, None, None]},
            "resolver": {"label_fn": lambda v: None},
        }[source]
        s = SubgraphView([4, 5, 6], m, **kwargs)
        assert s.labels() == (None, None, None)
        assert all(s.label_of(v) is None for v in (4, 5, 6))
        assert s.count_label(None) == 3 and s.count_label("a") == 0
        assert s.freeze().vertex_labels == (None, None, None)
        with pytest.raises(KeyError):
            s.label_of(7)  # not a vertex of the subgraph, whatever the source

    def test_resolve_with_swaps_the_label_source(self):
        verts = [1, 2]
        s = SubgraphView(verts, BitMatrix([0, 1]), label_fn={1: "a", 2: "b"}.get)
        assert s.labels() == ("a", "b")
        s.resolve_with(None, None, None)
        assert s.labels() == (None, None) and s.count_label(None) == 2
        s.resolve_with({1: "c", 2: "d"}.get, None, None)
        assert s.labels() == ("c", "d")


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


class TestLiveView:
    """One view over the explorer's live vertex list and matrix."""

    def live(self):
        verts = [5, 9]
        matrix = BitMatrix([0, 1])
        label_of = {5: "a", 9: "b", 2: "c", 7: "d"}
        return verts, matrix, SubgraphView(verts, matrix, label_fn=label_of.get)

    def test_frozen_match_is_unaffected_by_later_nodes(self):
        verts, matrix, s = self.live()
        frozen = s.freeze()
        for v, bits in ((2, 0b01), (7, 0b110)):
            verts.append(v)
            matrix.append_row(bits)
            s.rebind()
            assert s.has_edge(v, verts[1]) == bool(bits & 0b10)
        deeper = s.freeze()
        matrix.pop_row()
        verts.pop()
        s.rebind()
        assert frozen.vertices == (5, 9)
        assert frozen.edges == frozenset({(5, 9)})
        assert frozen.vertex_labels == ("a", "b")
        assert deeper.vertices == (5, 9, 2, 7)
        assert deeper.edges == frozenset({(5, 9), (2, 5), (7, 9), (2, 7)})
        assert deeper.vertex_labels == ("a", "b", "c", "d")

    def test_rebind_drops_what_the_previous_node_derived(self):
        verts, matrix, s = self.live()
        assert s.labels() == ("a", "b") and s.degree(9) == 1
        verts.append(2)
        matrix.append_row(0b10)
        s.rebind()
        assert len(s) == 3 and s.labels() == ("a", "b", "c")
        assert s.label_of(2) == "c" and s.degree(9) == 2 and s.has_edge(2, 9)
        matrix.pop_row()
        verts.pop()
        verts.append(7)
        matrix.append_row(0b01)
        s.rebind()
        assert s.labels() == ("a", "b", "d") and s.degree(9) == 1
        assert s.has_edge(7, 5) and 2 not in s

    def test_rebind_keeps_labels_given_to_the_constructor(self):
        s = make_view([1, 2], [(1, 2)], labels=["x", "y"])
        s.rebind()
        assert s.labels() == ("x", "y")

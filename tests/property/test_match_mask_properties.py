"""A match's packed slot-edge mask against the edge frozenset it replaces.

``SubgraphView.freeze()`` stores a match's edges as one int, the packed
lower triangle of the explorer's matrix, and ``MatchSubgraph`` derives its
edge keys from it on read.  On random 2-5-vertex subgraphs (unlabelled,
vertex-labelled and edge-labelled, under scrambled vertex ids) the derived
edges, edge labels and identity must equal what a frozenset construction
over the same triangle builds, a match built from ``(vertices, edges)``
must equal (and hash like) the frozen one, and a pickle round trip must
lose nothing.
"""

import itertools
import pickle

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.graph.bitset import BitMatrix
from repro.graph.canonical import motif_of
from repro.graph.subgraph import SubgraphView
from repro.types import MatchSubgraph

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LABELS = ("a", "b", None)


@st.composite
def leaf_views(draw):
    """A view over a random subgraph, its matrix and its edge-label
    resolver (None unless edge labels are loaded)."""
    n = draw(st.integers(min_value=2, max_value=5))
    vertices = draw(
        st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True)
    )
    possible = list(itertools.combinations(range(n), 2))
    slot_pairs = draw(st.lists(st.sampled_from(possible), unique=True))
    matrix = BitMatrix.from_edges(n, iter(slot_pairs))
    mode = draw(st.sampled_from(["plain", "vertex", "edge"]))
    labels = None
    if mode != "plain":
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    edge_labels = None
    if mode == "edge":
        edge_labels = {
            tuple(sorted((vertices[i], vertices[j]))): draw(st.sampled_from(LABELS))
            for i, j in slot_pairs
        }
    edge_label_fn = None
    if edge_labels is not None:
        edge_label_fn = lambda u, v: edge_labels[u, v]
    view = SubgraphView(vertices, matrix, labels, edge_label_fn=edge_label_fn)
    return view, matrix, edge_label_fn


def frozenset_freeze(view, matrix, edge_label_fn):
    """``freeze()`` as a walk of the stored triangle into an edge frozenset
    and a sorted ``(edge, label)`` tuple."""
    verts = list(view)
    edges = set()
    for i, bits in enumerate(matrix.lower_rows()):
        for j in range(i):
            if bits >> j & 1:
                u, v = verts[j], verts[i]
                edges.add((u, v) if u <= v else (v, u))
    labelled = ()
    if edge_label_fn is not None:
        labelled = tuple(sorted((e, edge_label_fn(*e)) for e in edges))
    return tuple(verts), frozenset(edges), view.labels(), labelled


@SETTINGS
@given(leaf_views())
def test_derived_edges_labels_and_identity_equal_the_frozenset_build(drawn):
    view = drawn[0]
    vertices, edges, labels, labelled = frozenset_freeze(*drawn)
    match = view.freeze()
    assert match.vertices == vertices
    assert match.edges == edges
    assert match.edge_labels == labelled
    assert match.vertex_labels == labels
    assert match.identity == (frozenset(vertices), edges)
    assert match.num_edges() == len(edges) == view.num_edges()


@SETTINGS
@given(leaf_views())
def test_a_match_built_from_its_edges_equals_the_frozen_one(drawn):
    view = drawn[0]
    vertices, edges, labels, labelled = frozenset_freeze(*drawn)
    frozen = view.freeze()
    built = MatchSubgraph(vertices, edges, labels, labelled)
    assert built == frozen
    assert hash(built) == hash(frozen)
    assert built.mask == frozen.mask
    assert repr(built) == repr(frozen)
    # the edges in any order and orientation are the same match
    flipped = MatchSubgraph(vertices, [(v, u) for u, v in edges], labels, labelled)
    assert flipped == frozen
    assert motif_of(built) is motif_of(frozen)


@SETTINGS
@given(leaf_views())
def test_a_pickle_round_trip_is_lossless(drawn):
    frozen = drawn[0].freeze()
    blob = pickle.dumps(frozen)
    back = pickle.loads(blob)
    assert back == frozen
    assert hash(back) == hash(frozen)
    assert back.mask == frozen.mask
    assert back.edges == frozen.edges
    assert back.edge_labels == frozen.edge_labels
    assert back.identity == frozen.identity
    # the edge set derived above does not travel: the pickle is the mask's
    assert pickle.dumps(frozen) == blob

"""The required-row contract: a veto stands only for a ``filter`` that rejects.

``MiningAlgorithm.required_row(n)`` names the slots a vertex joining a
filter-passing ``n``-vertex subgraph must be adjacent to; the explorer
rejects a child whose new row misses one of them without building it or
calling ``filter``.  That is sound only if ``filter`` would have rejected
the child anyway.  Here each shipped app that declares a required row runs
unvetoed (the default ``required_row``, so ``filter`` is asked about every
child) on random graphs and update streams, and every ``filter`` call on a
child whose row misses a slot the app's own ``required_row`` names must
return False.
"""

import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import CliqueMining, LabeledCliqueMining, PathMining
from repro.core.api import MiningAlgorithm
from repro.graph.adjacency import AdjacencyGraph
from repro.runtime.session import StreamingSession
from repro.types import Update

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

LABELS = ("a", "b", "c", "d")

#: the shipped apps that declare a required row, and 4-Path, which
#: declares none and is here so a wrong declaration on it is caught; an app
#: that declares one adds itself
APPS = {
    "4-C": lambda: CliqueMining(4, min_size=3),
    "5-C": lambda: CliqueMining(5, min_size=3),
    "4-CL": lambda: LabeledCliqueMining(4),
    "4-Path": lambda: PathMining(4, min_size=3),
}

#: the apps whose veto names a slot
VETOING = ("4-C", "5-C", "4-CL")


class Audited(MiningAlgorithm):
    """``inner`` with no veto of its own, auditing each ``filter`` verdict
    on a child against ``inner.required_row``."""

    def __init__(self, inner: MiningAlgorithm) -> None:
        self.inner = inner
        self.max_size = inner.max_size
        self.induced = inner.induced
        self.uses_edge_labels = inner.uses_edge_labels
        self.uses_directions = inner.uses_directions
        #: filter calls on a child whose row missed a required slot
        self.missed = 0
        #: those among them that ``filter`` kept
        self.kept: list = []

    def filter(self, s):
        keep = self.inner.filter(s)
        *parent, v = tuple(s)
        # a child of a filter-passing parent: every node below the root
        if len(parent) >= 2:
            need = self.inner.required_row(len(parent))
            row = 0
            for slot, u in enumerate(parent):
                if s.has_edge(u, v):
                    row |= 1 << slot
            if row & need != need:
                self.missed += 1
                if keep:
                    self.kept.append((tuple(s), sorted(s.edges()), s.labels()))
        return keep

    def match(self, s):
        return self.inner.match(s)


@st.composite
def streams(draw):
    """Labelled vertices, no edges yet, then a stream of edge adds and
    deletes and relabels, and a window size."""
    n = draw(st.integers(min_value=4, max_value=8))
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    pairs = list(itertools.combinations(range(n), 2))
    present = set()
    updates = []
    for _ in range(draw(st.integers(min_value=5, max_value=40))):
        roll = rng.random()
        if roll < 0.1:
            updates.append(Update.set_vertex_label(rng.randrange(n), rng.choice(LABELS)))
        elif roll < 0.3 and present:
            key = rng.choice(sorted(present))
            present.discard(key)
            updates.append(Update.delete_edge(*key))
        else:
            key = rng.choice(pairs)
            present.add(key)
            updates.append(Update.add_edge(*key))
    window = draw(st.sampled_from((1, 3, 10)))
    return labels, updates, window


def audit(app: str, labels, updates, window) -> Audited:
    graph = AdjacencyGraph()
    for v, label in enumerate(labels):
        graph.add_vertex(v, label)
    algorithm = Audited(APPS[app]())
    session = StreamingSession(algorithm, window_size=window, initial_graph=graph)
    try:
        session.process(updates)
    finally:
        session.close()
    return algorithm


@pytest.mark.parametrize("app", sorted(APPS))
@SETTINGS
@given(stream=streams())
def test_filter_rejects_every_child_the_veto_would(app, stream):
    algorithm = audit(app, *stream)
    assert not algorithm.kept, algorithm.kept


@pytest.mark.parametrize("app", VETOING)
def test_the_veto_has_children_to_reject(app):
    """On a dense stream the unvetoed app is asked about children that
    miss a required slot: the property above is not vacuous."""
    rng = random.Random(7)
    labels = [LABELS[v % len(LABELS)] for v in range(8)]
    pairs = list(itertools.combinations(range(8), 2))
    updates = [Update.add_edge(*key) for key in rng.sample(pairs, 20)]
    algorithm = audit(app, labels, updates, 5)
    assert algorithm.missed > 20
    assert not algorithm.kept

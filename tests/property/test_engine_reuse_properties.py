"""Engine state never leaks between tasks.

An :class:`~repro.core.explore.Explorer` keeps one vertex list, two bit
matrices and two subgraph views for its whole life and re-roots them at the
start of every update.  Whatever one task leaves behind — rows of its search
tree, labels and slot maps a view derived, the store view its resolvers read
— must be invisible to the next one.  The property: over random update
streams, one long-lived explorer yields, update by update, exactly the deltas
and the counters a brand-new explorer yields for that update alone.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import CliqueMining, LabeledCliqueMining
from repro.apps.directed import FeedForwardLoops
from repro.apps.fsm import FrequentSubgraphMining
from repro.core.api import EdgeInduced, VertexInduced
from repro.core.explore import Explorer
from repro.core.metrics import Metrics
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import Update
from scenarios import ReadsEverything

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

COUNTERS = (
    "filter_calls",
    "match_calls",
    "can_expand_calls",
    "expansions",
    "emits",
    "explore_calls",
)


ALGORITHMS = [
    pytest.param(lambda: CliqueMining(4, min_size=3), id="clique4-vertex"),
    pytest.param(lambda: LabeledCliqueMining(3, min_size=3), id="labeled-clique3"),
    pytest.param(
        lambda: FrequentSubgraphMining(3, edge_labeled=True), id="fsm3-edge-labelled"
    ),
    pytest.param(FeedForwardLoops, id="ffl-directions"),
    pytest.param(lambda: ReadsEverything(VertexInduced), id="reads-all-vertex"),
    pytest.param(lambda: ReadsEverything(EdgeInduced), id="reads-all-edge"),
]


@st.composite
def update_streams(draw, n=7, length=40):
    """Adds, deletes and relabels over a few vertices, labels and directions."""
    possible = list(itertools.combinations(range(n), 2))
    ops = [
        Update.add_vertex(v, draw(st.sampled_from(["a", "b", "c"]))) for v in range(n)
    ]
    present = set()
    for _ in range(length):
        e = draw(st.sampled_from(possible))
        roll = draw(st.integers(0, 9))
        if e in present and roll < 3:
            present.discard(e)
            ops.append(Update.delete_edge(*e))
        elif e in present and roll == 3:
            ops.append(Update.set_edge_label(*e, draw(st.sampled_from(["x", "y"]))))
        elif roll == 4:
            ops.append(
                Update.set_vertex_label(e[0], draw(st.sampled_from(["a", "b", "c"])))
            )
        elif e not in present:
            present.add(e)
            ops.append(
                Update.add_edge(
                    *e,
                    draw(st.sampled_from([None, "x", "y"])),
                    direction=draw(st.sampled_from([None, "fwd", "rev", "both"])),
                )
            )
    return ops


def counters(metrics):
    return tuple(getattr(metrics, name) for name in COUNTERS)


@pytest.mark.parametrize("make_algorithm", ALGORITHMS)
@SETTINGS
@given(ops=update_streams(), window=st.sampled_from([1, 3, 8]))
def test_long_lived_explorer_equals_a_fresh_one_per_update(make_algorithm, ops, window):
    store = MultiVersionStore()
    queue = WorkQueue()
    ingress = IngressNode(store, queue, window_size=window)
    ingress.submit_many(ops)
    ingress.flush()

    veteran = Explorer(make_algorithm(), metrics=Metrics())
    tasks = [(ts, item.update) for ts, items in queue.drain_windows() for item in items]
    for ts, update in tasks:
        before = counters(veteran.metrics)
        got = veteran.explore_update(ExplorationView(store, ts), update)
        spent = tuple(a - b for a, b in zip(counters(veteran.metrics), before))

        fresh = Explorer(make_algorithm(), metrics=Metrics())
        want = fresh.explore_update(ExplorationView(store, ts), update)
        assert got == want
        assert spent == counters(fresh.metrics)

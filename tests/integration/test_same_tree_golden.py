"""Golden counters: EXPLORE walks exactly the same tree.

Making one EXPLORE node cheaper must not change *which* nodes are
explored.  These tests pin the six ``core.*`` counters and a digest of the
full delta listing on small fixed seeded streams; the values were recorded
at the commit before the hot loop was made cheaper (lazy labels,
live-version bitsets, O(1) edge counts), so any drift is a behaviour
change, not a speed-up.

The labelled cases relabel vertices mid-stream: ingress lands the label
change and the deletion of the vertex's incident edges in one window, so
those explorations read a pre-window label that differs from the
post-window one.
"""

import hashlib
import random

import pytest

from repro.apps import (
    CliqueMining,
    FrequentSubgraphMining,
    GraphKeywordSearch,
    LabeledCliqueMining,
    MotifCounting,
)
from repro.core.engine import TesseractEngine
from repro.core.explore import Explorer
from repro.graph.generators import erdos_renyi
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.streaming.ingress import Window
from repro.types import EdgeUpdate, Update

LABELS = ("a", "b", "c", "d")


def seeded_stream(seed, n, m, num_updates, labelled):
    """A fixed graph plus a fixed add/delete/relabel stream drawn from ``seed``."""
    rng = random.Random(seed)
    graph = erdos_renyi(n, m, seed=seed)
    if labelled:
        for v in sorted(graph.vertices()):
            graph.set_vertex_label(v, rng.choice(LABELS))
    present = sorted(graph.edges())
    present_set = set(present)
    updates = []
    while len(updates) < num_updates:
        roll = rng.random()
        if labelled and roll < 0.08:
            updates.append(
                Update.set_vertex_label(rng.randrange(n), rng.choice(LABELS))
            )
        elif roll < 0.35 and present:
            key = present.pop(rng.randrange(len(present)))
            present_set.discard(key)
            updates.append(Update.delete_edge(*key))
        else:
            u, v = rng.randrange(n), rng.randrange(n)
            key = (u, v) if u < v else (v, u)
            if u == v or key in present_set:
                continue
            present.append(key)
            present_set.add(key)
            updates.append(Update.add_edge(*key))
    return graph, updates


def listing(deltas):
    """One line per delta, in emission order, with everything it carries."""
    return [
        f"{d.timestamp} {d.status.name} {d.subgraph.vertices} "
        f"{sorted(d.subgraph.edges)} {d.subgraph.vertex_labels} "
        f"{d.subgraph.edge_labels}"
        for d in deltas
    ]


def run_stream(algorithm, seed, n, m, num_updates, labelled, window_size):
    graph, updates = seeded_stream(seed, n, m, num_updates, labelled)
    session = StreamingSession(
        algorithm, window_size=window_size, initial_graph=graph
    )
    session.submit_many(updates)
    session.flush()
    return session


def mine(algorithm, **params):
    session = run_stream(algorithm, **params)
    metrics = session.metrics()
    deltas = session.deltas()
    counters = (
        metrics.filter_calls,
        metrics.match_calls,
        metrics.can_expand_calls,
        metrics.expansions,
        metrics.emits,
        metrics.explore_calls,
    )
    digest = hashlib.sha256("\n".join(listing(deltas)).encode()).hexdigest()
    news = sum(1 for d in deltas if d.is_new())
    return counters, (news, len(deltas) - news), digest[:16]


#: name -> (algorithm factory, stream parameters, recorded
#: (filter, match, can_expand, expansions, emits, explore) counters,
#: (NEW, REM) counts, first 16 hex digits of the listing's sha256)
GOLDEN = {
    "4-C": (
        lambda: CliqueMining(4, min_size=3),
        dict(seed=5, n=40, m=220, num_updates=160, labelled=False, window_size=8),
        (10119, 701, 15531, 9803, 543, 701),
        (273, 270),
        "922dd3274dde2aa7",
    ),
    "3-MC": (
        lambda: MotifCounting(3),
        dict(seed=6, n=40, m=120, num_updates=120, labelled=False, window_size=8),
        (27068, 1514, 21055, 13416, 1396, 1411),
        (716, 680),
        "f99deabb2038669c",
    ),
    "4-CL relabel": (
        lambda: LabeledCliqueMining(4, min_size=3),
        dict(seed=8, n=30, m=200, num_updates=160, labelled=True, window_size=8),
        (19661, 1699, 37068, 18195, 1138, 1699),
        (594, 544),
        "7ece1b4f9d948852",
    ),
    "4-GKS-2 relabel": (
        lambda: GraphKeywordSearch(["a", "b"], k=4),
        dict(seed=9, n=30, m=70, num_updates=100, labelled=True, window_size=6),
        (62441, 5273, 66393, 32541, 396, 5167),
        (206, 190),
        "887e34a07d4f603c",
    ),
    "3-FSM edge-induced": (
        lambda: FrequentSubgraphMining(3),
        dict(seed=10, n=30, m=70, num_updates=80, labelled=True, window_size=6),
        (42002, 1264, 29253, 42159, 1264, 2387),
        (789, 475),
        "a24b27ed2a11849f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_counters_and_deltas_match_the_recorded_tree(name):
    factory, params, counters, new_rem, digest = GOLDEN[name]
    got = mine(factory(), **params)
    assert got == (counters, new_rem, digest)


def test_relabel_streams_do_read_differing_pre_and_post_labels():
    """The labelled fixtures exercise pre != post: some REM carries a label
    that the same vertex's NEW in a later window does not."""
    factory, params, *_ = GOLDEN["4-CL relabel"]
    session = run_stream(factory(), **params)
    seen = {}
    changed = False
    for d in session.deltas():
        for v, label in d.subgraph.labels().items():
            if v in seen and seen[v] != label:
                changed = True
            seen[v] = label
    assert changed


class CountingStore(MultiVersionStore):
    """An ``mv`` store counting its ``vertex_label_at`` reads."""

    label_reads = 0

    def vertex_label_at(self, v, ts):
        self.label_reads += 1
        return super().vertex_label_at(v, ts)


def test_unlabelled_app_reads_labels_only_for_emitted_matches():
    """4-C never looks at a label: the only ``vertex_label_at`` reads are
    the ones ``freeze()`` makes for the vertices of emitted matches."""
    graph = erdos_renyi(40, 220, seed=5)
    store = CountingStore.from_adjacency(graph, ts=1)
    absent = [
        (u, v)
        for u in range(40)
        for v in range(u + 1, 40)
        if not graph.has_edge(u, v)
    ][:12]
    for u, v in absent:
        store.add_edge(u, v, 2)
    engine = TesseractEngine(store, CliqueMining(4, min_size=3))
    deltas = engine.process_window(
        Window(timestamp=2, updates=[EdgeUpdate(u, v, added=True) for u, v in absent])
    )
    assert deltas and engine.metrics.expansions > len(deltas)
    # each exploration view dedups its reads per vertex, so the reads are
    # bounded by the emitted matches' vertices and nothing else
    assert 0 < store.label_reads <= sum(len(d.subgraph.vertices) for d in deltas)

    # an update that emits nothing reads no label at all
    lonely = CountingStore()
    lonely.add_edge(1, 2, 1)
    lonely.add_edge(2, 3, 1)
    lonely.add_edge(3, 4, 2)
    out = Explorer(CliqueMining(4, min_size=3)).explore_update(
        ExplorationView(lonely, 2), EdgeUpdate(3, 4, added=True)
    )
    assert out == [] and lonely.label_reads == 0

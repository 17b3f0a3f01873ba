"""Golden counters: EXPLORE walks exactly the recorded tree.

These tests pin the six ``core.*`` counters and a digest of the full delta
listing on small fixed seeded streams.  The NEW/REM counts and the digests
were recorded before the hot loop was made cheaper (lazy labels,
live-version bitsets, O(1) edge counts) and have not moved since; the
counters now pin the *frontier-bounded* tree, in which a subgraph of
``max_size`` vertices is evaluated but never expanded.  ``match_calls`` and
``emits`` are the values of the unbounded tree, the other four fell.  Any
drift is a behaviour change, not a speed-up.

The unbounded tree is not lost: ``ParentTree`` rebuilds it without touching
the engine, and the equivalence tests below hold every shipped app's delta
listing to it.

The labelled cases relabel vertices mid-stream: ingress lands the label
change and the deletion of the vertex's incident edges in one window, so
those explorations read a pre-window label that differs from the
post-window one.

The node path is held to ``OracleExplorer`` (``tests/scenarios.py``),
which sends every node through ``_detect_changes`` and ``_evaluate`` as
the explorer once did: the same ``filter``/``match`` calls in the same
order, the same bytes and the same counters, with and without an
``OperationTimer`` attached and when a ``filter`` raises mid-tree.
"""

import hashlib
import json
import random

import pytest

from repro.apps import (
    CliqueMining,
    CycleMining,
    CyclicTriads,
    DiamondMining,
    FeedForwardLoops,
    FrequentSubgraphMining,
    GraphKeywordSearch,
    LabeledCliqueMining,
    MotifCounting,
    PathMining,
    PatternQuery,
)
from repro.core.api import MiningAlgorithm
from repro.core.engine import TesseractEngine, collect_matches
from repro.core.explore import Explorer
from repro.core.metrics import OperationTimer
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.generators import erdos_renyi
from repro.graph.pattern import Pattern
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.types import EdgeUpdate, Update, UpdateKind
from scenarios import FilterRaised, LoggingAlgorithm, OracleExplorer, stream_bytes

LABELS = ("a", "b", "c", "d")


def seeded_stream(seed, n, m, num_updates, labelled, directed=False):
    """A fixed graph plus a fixed add/delete/relabel stream drawn from ``seed``.

    ``directed`` orients every edge (preloaded or added) at random; the
    orientations come from their own generator, so the stream is otherwise
    the undirected one.
    """
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
    if directed:
        arrows = random.Random(seed + 1)
        oriented = AdjacencyGraph()
        for v in sorted(graph.vertices()):
            oriented.add_vertex(v, graph.vertex_label(v))
        for u, v in graph.sorted_edges():
            oriented.add_edge(u, v, direction=arrows.choice(("fwd", "rev")))
        graph = oriented
        updates = [
            Update.add_edge(up.src, up.dst, direction=arrows.choice(("fwd", "rev")))
            if up.kind is UpdateKind.ADD_EDGE
            else up
            for up in updates
        ]
    return graph, updates


def listing(deltas):
    """One line per delta, in emission order, with everything it carries."""
    return [
        f"{d.timestamp} {d.status.name} {d.subgraph.vertices} "
        f"{sorted(d.subgraph.edges)} {d.subgraph.vertex_labels} "
        f"{d.subgraph.edge_labels}"
        for d in deltas
    ]


def run_stream(
    algorithm, seed, n, m, num_updates, labelled, window_size, profile=False, **stream
):
    graph, updates = seeded_stream(seed, n, m, num_updates, labelled, **stream)
    session = StreamingSession(
        algorithm, window_size=window_size, initial_graph=graph, profile=profile
    )
    session.submit_many(updates)
    session.flush()
    return session


def counters_of(metrics):
    return (
        metrics.filter_calls,
        metrics.match_calls,
        metrics.can_expand_calls,
        metrics.expansions,
        metrics.emits,
        metrics.explore_calls,
    )


def mine(algorithm, **params):
    session = run_stream(algorithm, **params)
    metrics = session.metrics()
    deltas = session.deltas()
    counters = counters_of(metrics)
    digest = hashlib.sha256("\n".join(listing(deltas)).encode()).hexdigest()
    news = sum(1 for d in deltas if d.is_new())
    return counters, (news, len(deltas) - news), digest[:16]


#: name -> (algorithm factory, stream parameters, recorded
#: (filter, match, can_expand, expansions, emits, explore) counters, the
#: same six as recorded before ``max_size`` was enforced (the parent tree),
#: (NEW, REM) counts, first 16 hex digits of the listing's sha256)
GOLDEN = {
    "4-C": (
        lambda: CliqueMining(4, min_size=3),
        dict(seed=5, n=40, m=220, num_updates=160, labelled=False, window_size=8),
        (8532, 701, 11795, 8216, 543, 557),
        (10119, 701, 15531, 9803, 543, 701),
        (273, 270),
        "922dd3274dde2aa7",
    ),
    "3-MC": (
        lambda: MotifCounting(3),
        dict(seed=6, n=40, m=120, num_updates=120, labelled=False, window_size=8),
        (2822, 1514, 1336, 1293, 1396, 118),
        (27068, 1514, 21055, 13416, 1396, 1411),
        (716, 680),
        "f99deabb2038669c",
    ),
    "4-CL relabel": (
        lambda: LabeledCliqueMining(4, min_size=3),
        dict(seed=8, n=30, m=200, num_updates=160, labelled=True, window_size=8),
        (18306, 1699, 31128, 16840, 1138, 1451),
        (19661, 1699, 37068, 18195, 1138, 1699),
        (594, 544),
        "7ece1b4f9d948852",
    ),
    "4-GKS-2 relabel": (
        lambda: GraphKeywordSearch(["a", "b"], k=4),
        dict(seed=9, n=30, m=70, num_updates=100, labelled=True, window_size=6),
        (16048, 5273, 12553, 8037, 396, 1155),
        (62441, 5273, 66393, 32541, 396, 5167),
        (206, 190),
        "887e34a07d4f603c",
    ),
    "3-FSM edge-induced": (
        lambda: FrequentSubgraphMining(3),
        dict(seed=10, n=30, m=70, num_updates=80, labelled=True, window_size=6),
        (2387, 1264, 1123, 2279, 1264, 119),
        (42002, 1264, 29253, 42159, 1264, 2387),
        (789, 475),
        "a24b27ed2a11849f",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_counters_and_deltas_match_the_recorded_tree(name):
    factory, params, counters, _, new_rem, digest = GOLDEN[name]
    got = mine(factory(), **params)
    assert got == (counters, new_rem, digest)


class ParentTree(MiningAlgorithm):
    """``inner`` with the engine's bound ``slack`` vertices past the filter's.

    With ``slack=1`` the frontier rule never fires before ``inner.filter``
    (unchanged, still rejecting ``inner.max_size + 1`` vertices) has said
    no, so EXPLORE walks the tree it walked before ``max_size`` was
    enforced, with no change to the engine.  With ``slack=0`` it is a plain
    recording proxy.  Either way ``largest`` is the biggest subgraph
    ``filter`` was handed.
    """

    def __init__(self, inner, slack):
        self.inner = inner
        self.max_size = inner.max_size + slack
        self.induced = inner.induced
        self.ordered_output = inner.ordered_output
        self.uses_edge_labels = inner.uses_edge_labels
        self.uses_directions = inner.uses_directions
        self.largest = 0

    def filter(self, s):
        self.largest = max(self.largest, len(s))
        return self.inner.filter(s)

    def match(self, s):
        return self.inner.match(s)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_wrapper_rebuilds_the_recorded_parent_tree(name):
    """The counters this file pinned before the frontier rule are the
    wrapper's counters now, with the same deltas: the old tree and the new
    one differ only in nodes whose first ``filter`` call said no."""
    factory, params, _, parent_counters, new_rem, digest = GOLDEN[name]
    got = mine(ParentTree(factory(), slack=1), **params)
    assert got == (parent_counters, new_rem, digest)


_SPARSE = dict(n=30, m=70, num_updates=80, window_size=6)
_DENSE = dict(n=24, m=130, num_updates=100, window_size=8)

#: every algorithm ``repro.apps`` exports, in its own induced mode:
#: name -> (factory, stream parameters)
APPS = {
    "4-C": (lambda: CliqueMining(4, min_size=3), dict(_DENSE, labelled=False)),
    "4-CL": (lambda: LabeledCliqueMining(4, min_size=3), dict(_DENSE, labelled=True)),
    "4-Cycle": (lambda: CycleMining(4), dict(_SPARSE, labelled=False)),
    "Diamond": (DiamondMining, dict(_DENSE, labelled=False)),
    "Cycle3": (CyclicTriads, dict(_DENSE, labelled=False, directed=True)),
    "FFL": (FeedForwardLoops, dict(_DENSE, labelled=False, directed=True)),
    "3-FSM": (lambda: FrequentSubgraphMining(3), dict(_SPARSE, labelled=True)),
    "4-GKS-2": (lambda: GraphKeywordSearch(["a", "b"], k=4), dict(_SPARSE, labelled=True)),
    "3-MC": (lambda: MotifCounting(3), dict(_SPARSE, labelled=False)),
    "4-Path": (lambda: PathMining(4), dict(_SPARSE, labelled=False)),
    "query(star4)": (lambda: PatternQuery(Pattern.star(4)), dict(_SPARSE, labelled=False)),
}


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("name", sorted(APPS))
def test_frontier_bounded_tree_emits_what_the_parent_tree_emitted(name, seed):
    """Same deltas, in the same order, from strictly fewer expansions; and
    ``filter`` is never handed more than ``max_size`` vertices."""
    factory, params = APPS[name]
    bounded = ParentTree(factory(), slack=0)
    parent = ParentTree(factory(), slack=1)
    now = run_stream(bounded, seed=seed, **params)
    then = run_stream(parent, seed=seed, **params)
    assert now.deltas()
    assert listing(now.deltas()) == listing(then.deltas())
    assert now.metrics().match_calls == then.metrics().match_calls
    assert now.metrics().expansions < then.metrics().expansions
    assert bounded.largest == bounded.max_size
    # the wrapper did rebuild the old tree: the filter saw (and rejected)
    # subgraphs one vertex past the app's own bound
    assert parent.largest == bounded.max_size + 1


#: profiled runs: every ``GOLDEN`` stream, and every ``APPS`` stream on seed 11
PROFILE_CASES = {
    **{f"golden {name}": (entry[0], entry[1]) for name, entry in GOLDEN.items()},
    **{
        f"apps {name}": (factory, dict(params, seed=11))
        for name, (factory, params) in APPS.items()
    },
}

#: case -> first 16 hex digits of the sha256 of ``ExplorationProfile.to_dict()``
#: (per-update nodes, attempts, expansions, pruned_*, depth_nodes, max_depth,
#: per-window rows, totals), recorded while every event was still one
#: profile call; accounting per EXPLORE call must not move one number.
#: The two directed streams were re-recorded once ingress kept an edge's
#: direction on a deferred re-add: the old digests pinned runs that lost it
#: (see ``test_directed_streams_end_at_the_static_match_set``)
PROFILE_GOLDEN = {
    "apps 3-FSM": "d325558ba1130ff8",
    "apps 3-MC": "4cd2d8d4afed4da7",
    "apps 4-C": "67a0f46ca0807488",
    "apps 4-CL": "6427705667037910",
    "apps 4-Cycle": "940eab5515bd86fa",
    "apps 4-GKS-2": "e8cc54d93f78201b",
    "apps 4-Path": "1718cef73864bf5d",
    "apps Cycle3": "c49d7edc1b466176",
    "apps Diamond": "5ba6718f440ed873",
    "apps FFL": "36abc89ee3fba391",
    "apps query(star4)": "ed6478cd2f5f98e6",
    "golden 3-FSM edge-induced": "c67beb193bcb833d",
    "golden 3-MC": "985e80dfe5150512",
    "golden 4-C": "81d49691f889ae84",
    "golden 4-CL relabel": "8a7acc8d4503514b",
    "golden 4-GKS-2 relabel": "6be7917499959dad",
}


@pytest.mark.parametrize("case", sorted(PROFILE_CASES))
def test_profile_attributes_the_recorded_tree(case):
    factory, params = PROFILE_CASES[case]
    session = run_stream(factory(), profile=True, **params)
    profile = session.collect_profile()
    totals = profile.totals()
    # profiling on or off, the profile and the metrics count the same events
    assert (
        totals["filter_calls"],
        totals["match_calls"],
        totals["attempts"],
        totals["expansions"],
        totals["new"] + totals["rem"],
    ) == counters_of(session.metrics())[:5]
    assert totals["nodes"] == totals["expansions"] + totals["updates"]
    doc = json.dumps(profile.to_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest()[:16] == PROFILE_GOLDEN[case]


@pytest.mark.parametrize("name", ["Cycle3", "FFL"])
def test_directed_streams_end_at_the_static_match_set(name):
    """The initial graph's matches plus every delta are the matches of the
    final directed graph: a re-added arc (deleted and added again in one
    window) keeps its direction."""
    factory, params = APPS[name]
    params = dict(params, seed=11)
    graph, updates = seeded_stream(
        params["seed"], params["n"], params["m"], params["num_updates"],
        params["labelled"], directed=True,
    )  # fmt: skip
    final = graph.copy()
    for update in updates:
        if update.kind is UpdateKind.ADD_EDGE:
            final.add_edge(update.src, update.dst, direction=update.direction)
        else:
            final.remove_edge(update.src, update.dst)
    session = run_stream(factory(), **params)
    try:
        start = TesseractEngine.run_static(graph, factory())
        live = collect_matches(start + session.deltas())
    finally:
        session.close()
    assert live == collect_matches(TesseractEngine.run_static(final, factory()))


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


def mine_4c_window(one_label):
    """12 edge additions mined by 4-C on a ``CountingStore``; with
    ``one_label`` a vertex no exploration meets carries a label."""
    graph = erdos_renyi(40, 220, seed=5)
    store = CountingStore.from_adjacency(graph, ts=1)
    if one_label:
        store.set_vertex_label(1000, 1, "x")
    absent = [
        (u, v)
        for u in range(40)
        for v in range(u + 1, 40)
        if not graph.has_edge(u, v)
    ][:12]
    for u, v in absent:
        store.add_edge(u, v, 2)
    engine = TesseractEngine(store, CliqueMining(4, min_size=3))
    deltas = [
        d for u, v in absent for d in engine.process_update(2, EdgeUpdate(u, v, added=True))
    ]
    assert deltas and engine.metrics.expansions > len(deltas)
    assert all(set(d.subgraph.vertex_labels) == {None} for d in deltas)
    return store, deltas


def test_unlabelled_app_reads_labels_only_for_emitted_matches():
    """4-C never looks at a label, and on a store where no vertex ever had
    one an emitted match carries ``None`` labels at no store cost: no
    ``vertex_label_at`` read at all."""
    store, _ = mine_4c_window(one_label=False)
    assert store.label_reads == 0


def test_unlabelled_app_on_a_labelled_store_reads_emitted_labels_only():
    """With one label anywhere in the store, the only ``vertex_label_at``
    reads are the ones ``freeze()`` makes for the vertices of emitted
    matches."""
    store, deltas = mine_4c_window(one_label=True)
    # each exploration view dedups its reads per vertex, so the reads are
    # bounded by the emitted matches' vertices and nothing else
    assert 0 < store.label_reads <= sum(len(d.subgraph.vertices) for d in deltas)

    # an update that emits nothing reads no label at all
    lonely = CountingStore()
    lonely.set_vertex_label(1000, 1, "x")
    lonely.add_edge(1, 2, 1)
    lonely.add_edge(2, 3, 1)
    lonely.add_edge(3, 4, 2)
    out = Explorer(CliqueMining(4, min_size=3)).explore_update(
        ExplorationView(lonely, 2), EdgeUpdate(3, 4, added=True)
    )
    assert out == [] and lonely.label_reads == 0


#: the node-path cases, each on add/delete/relabel streams: name ->
#: (algorithm factory, stream parameters).  On 4-C and 4-CL most nodes sit
#: under a root where one version failed ``filter`` (one live version);
#: 3-MC keeps both versions live at every node; FSM is edge-induced.
NODE_PATH = {
    "4-C": (lambda: CliqueMining(4, min_size=3), dict(_DENSE, labelled=True)),
    "3-MC": (lambda: MotifCounting(3), dict(_SPARSE, labelled=True)),
    # 4-vertex nodes whose parent is disconnected in one version: the
    # connectivity the explorer hands down is held to the oracle's BFS
    "4-MC": (lambda: MotifCounting(4), dict(_SPARSE, labelled=True)),
    "4-CL": (lambda: LabeledCliqueMining(4, min_size=3), dict(_DENSE, labelled=True)),
    "3-FSM": (lambda: FrequentSubgraphMining(3), dict(_SPARSE, labelled=True)),
}


def node_path(explorer_class, name, seed, timing=False, raise_at=None):
    """The call log, delta bytes and ``Metrics.counts()`` of one serial run
    of ``NODE_PATH[name]`` whose engine explores with ``explorer_class``
    (with ``timing``, under an :class:`OperationTimer`); with ``raise_at``,
    of the run up to the ``filter`` call that raised."""
    factory, params = NODE_PATH[name]
    params = dict(params, seed=seed)
    window_size = params.pop("window_size")
    graph, updates = seeded_stream(**params)
    algorithm = LoggingAlgorithm(factory(), raise_at=raise_at)
    session = StreamingSession(
        algorithm, window_size=window_size, initial_graph=graph
    )
    try:
        engine = session.backend.engine
        engine.explorer = explorer_class(algorithm, metrics=engine.metrics)
        algorithm.watch(engine.explorer)
        timer = OperationTimer().attach(engine.explorer) if timing else None
        session.submit_many(updates)
        if raise_at is None:
            session.flush()
        else:
            with pytest.raises(FilterRaised):
                session.flush()
        if timing:
            assert timer.seconds["filter"] > 0
        return algorithm.log, stream_bytes(session.deltas()), engine.metrics.counts()
    finally:
        session.close()


@pytest.mark.parametrize("timing", [False, True], ids=["untimed", "timed"])
@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("name", sorted(NODE_PATH))
def test_node_path_makes_the_oracle_calls_in_the_oracle_order(name, seed, timing):
    log, deltas, counts = node_path(Explorer, name, seed, timing)
    oracle_log, oracle_deltas, oracle_counts = node_path(
        OracleExplorer, name, seed, timing
    )
    assert deltas
    assert {version for _, version, *_ in log} == {"pre", "post"}
    assert log == oracle_log
    assert deltas == oracle_deltas
    assert counts == oracle_counts


@pytest.mark.parametrize("raise_at, size", [(1, 2), (2, 2), (40, 3), (1001, 4)])
def test_a_filter_that_raises_leaves_the_oracle_counts(raise_at, size):
    """A call is counted once it returned: up to a raise, the log, the
    deltas and the counters are the oracle's, whether the raising call is
    at a root or at a ``size``-vertex node below it."""
    full_log = node_path(OracleExplorer, "4-C", 11)[0]
    filters = [entry for entry in full_log if entry[0] == "filter"]
    assert len(filters[raise_at - 1][2]) == size
    got = node_path(Explorer, "4-C", 11, raise_at=raise_at)
    assert got == node_path(OracleExplorer, "4-C", 11, raise_at=raise_at)

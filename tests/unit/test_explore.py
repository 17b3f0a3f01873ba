"""Unit tests for the EXPLORE algorithm and change detection."""

import itertools
import random

import pytest

from repro.apps import CliqueMining, PathMining
from repro.core.api import EdgeInduced, MiningAlgorithm, VertexInduced
from repro.core.explore import Explorer
from repro.core.metrics import Metrics
from repro.core.stesseract import STesseractEngine
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.bitset import BitMatrix
from repro.graph.generators import erdos_renyi
from repro.graph.subgraph import SubgraphView
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import EdgeUpdate, MatchStatus, MatchSubgraph, Update, edge_key


def explore(store, ts, update, algorithm):
    return Explorer(algorithm).explore_update(ExplorationView(store, ts), update)


class TestTriangleCompletion:
    def test_closing_edge_finds_triangle(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 3, added=True), CliqueMining(3))
        triangles = [d for d in deltas if d.status is MatchStatus.NEW]
        assert len(triangles) == 1
        assert set(triangles[0].subgraph.vertices) == {1, 2, 3}

    def test_non_closing_edge_finds_nothing(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(3, 4, ts=2)
        deltas = explore(store, 2, EdgeUpdate(3, 4, added=True), CliqueMining(3))
        assert deltas == []

    def test_deletion_removes_triangle(self):
        store = MultiVersionStore()
        for u, v in [(1, 2), (2, 3), (1, 3)]:
            store.add_edge(u, v, ts=1)
        store.delete_edge(1, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 3, added=False), CliqueMining(3))
        assert len(deltas) == 1
        assert deltas[0].status is MatchStatus.REM
        assert set(deltas[0].subgraph.vertices) == {1, 2, 3}


class TestRemPlusNew:
    def test_path_becomes_triangle(self):
        """The paper's section 4.3 example: adding (1,3) to path 1-2-3 emits
        one REM (the path) and one NEW if both match — here with PathMining
        the path is REMoved and nothing NEW appears."""
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 3, added=True), PathMining(3))
        rems = [d for d in deltas if d.status is MatchStatus.REM]
        news = [d for d in deltas if d.status is MatchStatus.NEW]
        assert len(rems) == 1
        assert set(rems[0].subgraph.vertices) == {1, 2, 3}
        # the triangle is not a path; the new 2-vertex subgraphs are below
        # min_size; no NEW for the 3-set
        assert all(set(d.subgraph.vertices) != {1, 2, 3} for d in news)

    def test_same_vertex_set_rem_and_new(self):
        """4-cycle + chord: adding the chord REMs the 4-path and NEWs none,
        but with PathMining(4) subpaths shift around."""
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(3, 4, ts=1)
        store.add_edge(1, 4, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 4, added=True), PathMining(4))
        rem_sets = {frozenset(d.subgraph.vertices) for d in deltas if d.is_rem()}
        assert frozenset({1, 2, 3, 4}) in rem_sets  # path 1-2-3-4 destroyed


class TestEmittedSubgraphContent:
    def test_rem_carries_pre_edges(self):
        store = MultiVersionStore()
        for u, v in [(1, 2), (2, 3), (1, 3)]:
            store.add_edge(u, v, ts=1)
        store.delete_edge(2, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(2, 3, added=False), CliqueMining(3))
        rem = deltas[0]
        assert rem.subgraph.edges == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_new_carries_post_edges(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(1, 3, added=True), CliqueMining(3))
        assert deltas[0].subgraph.edges == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_timestamp_stamped(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=7)
        deltas = explore(store, 7, EdgeUpdate(1, 3, added=True), CliqueMining(3))
        assert deltas[0].timestamp == 7


class TestSameWindowDedup:
    def test_triangle_added_in_one_window_found_once(self):
        """Paper section 4.4.3: all three edges in one snapshot — the match
        is found only from the lowest edge (1,2)."""
        store = MultiVersionStore()
        for u, v in [(1, 2), (1, 3), (2, 3)]:
            store.add_edge(u, v, ts=1)
        alg = CliqueMining(3)
        all_deltas = []
        for u, v in [(1, 2), (1, 3), (2, 3)]:
            all_deltas.extend(
                explore(store, 1, EdgeUpdate(u, v, added=True), alg)
            )
        assert len(all_deltas) == 1
        found = explore(store, 1, EdgeUpdate(1, 2, added=True), alg)
        assert len(found) == 1  # and specifically from the lowest edge

    def test_future_edges_invisible(self):
        """Section 4.4.2: the exploration at ts=1 cannot see the ts=2 edge."""
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        deltas = explore(store, 1, EdgeUpdate(1, 2, added=True), CliqueMining(3))
        assert all(set(d.subgraph.vertices) != {1, 2, 3} for d in deltas)


class TestBoundedness:
    def test_engine_enforces_max_size(self):
        """``max_size`` is the engine's bound, not a promise the filter must
        keep: an always-true filter terminates and never sees a subgraph
        larger than ``max_size``."""
        seen = []

        class Unbounded(MiningAlgorithm):
            max_size = 4

            def filter(self, s):
                seen.append(len(s))
                return True

            def match(self, s):
                return False

        store = MultiVersionStore()
        verts = list(range(14))
        for i in verts:
            for j in verts:
                if i < j:
                    store.add_edge(i, j, ts=1)
        metrics = Metrics()
        out = Explorer(Unbounded(), metrics=metrics).explore_update(
            ExplorationView(store, 1), EdgeUpdate(0, 1, added=True)
        )
        assert out == []
        assert max(seen) == 4
        # {0,1} plus every 1- and 2-subset of the other twelve vertices,
        # each grown in exactly one (canonical) order
        assert metrics.expansions == 12 + 12 * 11 // 2


class TestMetricsInstrumentation:
    def test_counters_advance(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        metrics = Metrics()
        explorer = Explorer(CliqueMining(3), metrics=metrics)
        explorer.explore_update(
            ExplorationView(store, 2), EdgeUpdate(1, 3, added=True)
        )
        assert metrics.filter_calls > 0
        assert metrics.can_expand_calls > 0
        assert metrics.emits == 1
        assert metrics.work_units() > 0


class TallyingCliques(CliqueMining):
    """Counts its own verdicts per call, and can die on the n-th ``filter``."""

    def __init__(self, k, die_at=None):
        super().__init__(k, min_size=3)
        self.die_at = die_at
        self.tally = [0, 0, 0, 0]  # filter calls / rejected, match calls / rejected

    def filter(self, s):
        if self.tally[0] + 1 == self.die_at:
            raise RuntimeError("filter died")
        keep = super().filter(s)
        self.tally[0] += 1
        self.tally[1] += not keep
        return keep

    def match(self, s):
        matched = super().match(s)
        self.tally[2] += 1
        self.tally[3] += not matched
        return matched


class TestVerdictsReachTheProfile:
    """Verdicts are counted in the explorer and handed over per update."""

    @staticmethod
    def store_and_updates():
        g = erdos_renyi(12, 40, seed=5)
        edges = sorted(g.edges())
        store = MultiVersionStore()
        for u, v in edges[:-2]:
            store.add_edge(u, v, ts=1)
        for u, v in edges[-2:]:
            store.add_edge(u, v, ts=2)
        return store, [EdgeUpdate(u, v, added=True) for u, v in edges[-2:]]

    @staticmethod
    def verdicts(record):
        return [
            record.filter_calls,
            record.filter_rejected,
            record.match_calls,
            record.match_rejected,
        ]

    def test_each_record_holds_its_own_update_s_verdicts(self):
        from repro.telemetry import ExplorationProfile

        store, updates = self.store_and_updates()
        profile = ExplorationProfile()
        algorithm = TallyingCliques(4)
        explorer = Explorer(algorithm, profile=profile)
        view = ExplorationView(store, 2)
        for update in updates:
            before = list(algorithm.tally)
            explorer.explore_update(view, update)
            record = profile.update_records()[(2, update.u, update.v, True)]
            want = [now - was for now, was in zip(algorithm.tally, before)]
            assert self.verdicts(record) == want
            assert want[0] > 2 and want[2] > 0

    def test_a_task_that_raised_mid_tree_keeps_what_it_counted(self):
        from repro.telemetry import ExplorationProfile

        store, (first, second) = self.store_and_updates()
        profile = ExplorationProfile()
        algorithm = TallyingCliques(4, die_at=5)
        explorer = Explorer(algorithm, profile=profile)
        view = ExplorationView(store, 2)
        with pytest.raises(RuntimeError):
            explorer.explore_update(view, first)
        died_with = list(algorithm.tally)
        assert died_with[0] == 4
        algorithm.die_at = None
        explorer.explore_update(view, second)
        records = profile.update_records()
        assert self.verdicts(records[(2, first.u, first.v, True)]) == died_with
        want = [now - was for now, was in zip(algorithm.tally, died_with)]
        assert self.verdicts(records[(2, second.u, second.v, True)]) == want


class TestTimingMode:
    """Timing mode adds ``perf_counter`` differences to the three
    ``*_seconds`` fields; with it off the explorer never reads the clock."""

    ALGORITHMS = {
        "vertex-induced": lambda: CliqueMining(4, min_size=3),
        "edge-induced": lambda: TestEdgeInducedMode.AllSubgraphs(),
    }

    @staticmethod
    def explore_all(metrics, algorithm):
        store, updates = TestVerdictsReachTheProfile.store_and_updates()
        explorer = Explorer(algorithm, metrics=metrics)
        for update in updates:
            explorer.explore_update(ExplorationView(store, 2), update)

    @pytest.mark.parametrize("mode", sorted(ALGORITHMS))
    def test_timing_off_never_reads_the_clock(self, mode, monkeypatch):
        import time

        def no_clock():  # pragma: no cover - must never run
            raise AssertionError("clock read with timing off")

        metrics = Metrics()
        monkeypatch.setattr(time, "perf_counter", no_clock)
        self.explore_all(metrics, self.ALGORITHMS[mode]())
        monkeypatch.undo()
        assert metrics.filter_calls and metrics.can_expand_calls
        assert metrics.filter_seconds == metrics.match_seconds == 0.0
        assert metrics.can_expand_seconds == 0.0

    @pytest.mark.parametrize("mode", sorted(ALGORITHMS))
    def test_timing_on_grows_the_three_seconds_fields(self, mode):
        metrics = Metrics(timing_enabled=True)
        self.explore_all(metrics, self.ALGORITHMS[mode]())
        assert metrics.match_calls
        assert metrics.filter_seconds > 0.0
        assert metrics.match_seconds > 0.0
        assert metrics.can_expand_seconds > 0.0


class TestEdgeInducedMode:
    class AllSubgraphs(MiningAlgorithm):
        induced = EdgeInduced
        max_size = 3

        def filter(self, s):
            return len(s) <= 3

        def match(self, s):
            return len(s) >= 2

    def test_edge_addition_emits_containing_subgraphs(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(2, 3, added=True), self.AllSubgraphs())
        edge_sets = {d.subgraph.edges for d in deltas if d.is_new()}
        # the new edge alone, and the path {12, 23}
        assert frozenset({(2, 3)}) in edge_sets
        assert frozenset({(1, 2), (2, 3)}) in edge_sets
        # every NEW contains the update edge
        assert all((2, 3) in es for es in edge_sets)

    def test_edge_deletion_emits_rems(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.delete_edge(2, 3, ts=2)
        deltas = explore(store, 2, EdgeUpdate(2, 3, added=False), self.AllSubgraphs())
        assert all(d.is_rem() for d in deltas)
        assert {d.subgraph.edges for d in deltas} == {
            frozenset({(2, 3)}),
            frozenset({(1, 2), (2, 3)}),
        }


def observe(s):
    """Everything an algorithm can read off a view, by every accessor."""
    verts = s.vertices()
    return (
        len(s),
        s.labels(),
        tuple(s.label_of(v) for v in verts),
        sorted(s.edges()),
        tuple(s.degree(v) for v in verts),
        [s.has_edge(u, v) for u in verts for v in verts],
    )


class ViewChecker(MiningAlgorithm):
    """Keeps and matches every subgraph, and at every node compares the
    view it is handed with a fresh one built from the graph.

    The engine hands ``filter``/``match`` the same view object at every
    node of an update; a lazy cache that survives from one node to the
    next, or a view whose matrix stopped growing, shows up here as a
    label, slot or edge that belongs to another node.
    """

    max_size = 4

    def __init__(self, alive, label, induced=VertexInduced, edge_label=None):
        self.induced = induced
        self._alive = alive  # (u, v, version) -> bool
        self._label = label  # (v, version) -> label
        self._edge_label = edge_label  # (u, v, version) -> label; None: not loaded
        self.uses_edge_labels = edge_label is not None
        self.versions = ()  # the versions the current update may be read at
        self.nodes = 0
        self.differing = 0

    def fresh(self, verts, version):
        n = len(verts)
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if self._alive(verts[i], verts[j], version)
        ]
        return SubgraphView(
            list(verts),
            BitMatrix.from_edges(n, iter(pairs)),
            [self._label(v, version) for v in verts],
        )

    def frozen(self, verts, version, chosen=None):
        """What ``freeze()`` must hand out, built from the graph without it.

        ``chosen`` narrows an edge-induced match to the edges it picked.
        """
        edges = {
            edge_key(u, v)
            for u, v in itertools.combinations(verts, 2)
            if self._alive(u, v, version)
        }
        if chosen is not None:
            assert chosen <= edges
            edges = chosen
        edge_labels = ()
        if self._edge_label is not None:
            edge_labels = tuple(
                sorted((e, self._edge_label(*e, version)) for e in edges)
            )
        return MatchSubgraph(
            tuple(verts),
            frozenset(edges),
            tuple(self._label(v, version) for v in verts),
            edge_labels,
        )

    def check(self, s):
        self.nodes += 1
        seen = observe(s)
        expected = [observe(self.fresh(s.vertices(), t)) for t in self.versions]
        self.differing += len(expected) == 2 and expected[0] != expected[1]
        if self.induced is VertexInduced:
            assert seen in expected
            return
        # edge-induced: the labels of one version, a subset of its edges,
        # and accessors that agree with one another
        size, labels, labels_of, edges, degrees, has = seen
        assert size == len(s.vertices()) and labels == labels_of
        assert any(
            labels == want[1] and set(edges) <= set(want[3]) for want in expected
        )
        verts = s.vertices()
        assert degrees == tuple(sum(v in e for e in edges) for v in verts)
        assert has == [
            (min(u, v), max(u, v)) in edges for u in verts for v in verts
        ]

    def filter(self, s):
        self.check(s)
        return True

    def match(self, s):
        self.check(s)
        return True


def relabelling_stream(seed=3, n=12, m=22, num_updates=40, edge_labels=False):
    rng = random.Random(seed)
    # edge labels come from their own generator: the stream's shape is the
    # same with and without them
    edge_rng = random.Random(seed + 1)
    graph = erdos_renyi(n, m, seed=seed)
    for v in sorted(graph.vertices()):
        graph.set_vertex_label(v, rng.choice("abc"))
    if edge_labels:
        for u, v in graph.sorted_edges():
            graph.set_edge_label(u, v, edge_rng.choice("xyz"))
    updates = []
    for _ in range(num_updates):
        roll = rng.random()
        u, v = rng.sample(range(n), 2)
        if roll < 0.15:
            updates.append(Update.set_vertex_label(u, rng.choice("abc")))
        elif roll < 0.5:
            updates.append(Update.delete_edge(u, v))
        else:
            label = edge_rng.choice("xyz") if edge_labels else None
            updates.append(Update.add_edge(u, v, label))
    return graph, updates


class TestOneViewPerUpdate:
    @pytest.mark.parametrize("edge_labels", [False, True])
    @pytest.mark.parametrize("induced", [VertexInduced, EdgeInduced])
    def test_every_node_reads_its_own_subgraph(self, induced, edge_labels):
        graph, updates = relabelling_stream(edge_labels=edge_labels)
        store = MultiVersionStore.from_adjacency(graph, ts=1)
        queue = WorkQueue()
        ingress = IngressNode(store, queue, window_size=5)
        ingress.submit_many(updates)
        ingress.flush()
        checker = ViewChecker(
            store.edge_alive_at,
            store.vertex_label_at,
            induced,
            store.edge_label_at if edge_labels else None,
        )
        explorer = Explorer(checker)
        emitted = 0
        relabelled = set()
        for item in queue.drain():
            ts = item.timestamp
            checker.versions = (ts - 1, ts)
            for d in explorer.explore_update(ExplorationView(store, ts), item.update):
                chosen = None if induced is VertexInduced else d.subgraph.edges
                assert d.subgraph == checker.frozen(
                    d.subgraph.vertices, ts if d.is_new() else ts - 1, chosen
                )
                relabelled.update(
                    e
                    for e, label in d.subgraph.edge_labels
                    if label != graph.edge_label(*e)
                )
                emitted += 1
        assert checker.nodes > emitted > 0
        # a re-added edge was emitted with the label of its own version
        assert bool(relabelled) == edge_labels
        # deletions and relabels did make the two versions differ
        assert checker.differing > 50
        assert explorer.metrics.expansions > explorer.metrics.explore_calls > 0

    def test_stesseract_reads_its_own_subgraph_at_every_node(self):
        graph, _ = relabelling_stream(edge_labels=True)
        checker = ViewChecker(
            lambda u, v, _: graph.has_edge(u, v),
            lambda v, _: graph.vertex_label(v),
            edge_label=lambda u, v, _: graph.edge_label(u, v),
        )
        checker.versions = (None,)
        deltas = STesseractEngine(checker).run(graph)
        assert deltas and checker.nodes > len(deltas)
        for d in deltas:
            assert d.subgraph == checker.frozen(d.subgraph.vertices, None)

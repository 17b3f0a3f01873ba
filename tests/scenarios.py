"""Seeded scenarios for the differential tests: streams, preload paths,
the delta-stream encoding they compare, the per-task profile oracle, and
the per-node exploration oracle.

A scenario is replayable from its arguments alone: the update stream is
drawn from one ``random.Random(seed)``, and a store is preloaded through one
of the paths a deployment fills a store by — a graph loaded in process, a
``put_record`` replay, a checkpoint restore, or a bulk load over the wire to
an external server.  Every path must leave a store that mines the same
stream to the same bytes.
"""

from __future__ import annotations

import itertools
import pickle
import random
from contextlib import contextmanager
from typing import List, Optional

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, rule

from repro.apps import CliqueMining
from repro.core.api import InducedMode, MiningAlgorithm
from repro.core.canonicality import ALLOWED, PRUNED_RULE2
from repro.core.explore import Explorer
from repro.errors import WorkerCrashed
from repro.graph.adjacency import AdjacencyGraph
from repro.runtime.fault import CrashPlan, FaultInjector
from repro.store.api import make_store
from repro.store.checkpoint import store_from_dict, store_to_dict
from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import IngressNode
from repro.telemetry import ExplorationProfile, UpdateProfile
from repro.types import MatchStatus, Update, edge_key, normalize_direction

#: how a store receives its initial graph (``bulk_load`` is ``net`` only)
PRELOAD_PATHS = ("graph", "put_record", "checkpoint", "bulk_load")


def stream_bytes(deltas) -> bytes:
    """Canonical byte encoding of a delta stream, one record per delta.

    Pickling the whole list at once would entangle the encoding with
    object-identity memoization (serial runs share subgraph objects across
    deltas; process runs return fresh copies), so each delta is encoded
    independently.  Its edge set is encoded sorted: iteration order is not
    part of a frozenset's value, and a set rebuilt on the far side of a
    pipe can iterate differently from an equal one built in place.
    """
    return b"\x00".join(
        pickle.dumps(
            (
                d.timestamp,
                d.status,
                d.subgraph.vertices,
                sorted(d.subgraph.edges),
                d.subgraph.vertex_labels,
                d.subgraph.edge_labels,
            )
        )
        for d in deltas
    )


class ReadsEverything(MiningAlgorithm):
    """Matches on what the view says about labels, edge labels and arcs.

    Every accessor a view caches behind (vertex labels, the slot map) or
    resolves through the engine (edge labels, directions) decides ``match``,
    so a wrong or stale answer from any of them changes the delta stream.
    """

    max_size = 3
    uses_edge_labels = True
    uses_directions = True

    def __init__(self, induced):
        self.induced = induced

    def filter(self, s):
        return len(s) <= self.max_size

    def match(self, s):
        arcs = sum(s.out_degree(v) for v in s)
        return (arcs + s.count_label("a") + s.count_edge_label("x")) % 2 == 0


def fact_stream(
    seed: int, fact: Optional[str], n: int = 7, length: int = 40
) -> List[Update]:
    """Adds and deletes over vertices ``0..n-1``; from the middle of the
    stream on, also updates that store a value of one capability fact.

    ``fact`` names it (``has_vertex_labels``: relabels;
    ``has_edge_labels``: labelled adds and edge relabels;
    ``has_directions``: directed adds; None: no value at all).  The first
    half stores no label and no direction, and the second half opens with
    a value, so a store that starts without the fact flips it mid-stream,
    at a known update.
    """
    rng = random.Random(seed)
    possible = list(itertools.combinations(range(n), 2))
    present = set()
    ops: List[Update] = []
    half = length // 2
    for i in range(length):
        roll = rng.randrange(10)
        valued = i == half or (i > half and roll >= 6)
        if i == half and fact != "has_vertex_labels":
            # the first edge value goes on an edge that is not live yet
            e = rng.choice([x for x in possible if x not in present])
        else:
            e = rng.choice(possible)
        if e in present and roll < 3 and i != half:
            present.discard(e)
            ops.append(Update.delete_edge(*e))
        elif valued and fact == "has_vertex_labels":
            ops.append(Update.set_vertex_label(e[0], rng.choice("abc")))
        elif valued and fact == "has_edge_labels" and e in present:
            ops.append(Update.set_edge_label(*e, rng.choice("xy")))
        elif e not in present:
            present.add(e)
            label = rng.choice("xy") if valued and fact == "has_edge_labels" else None
            direction = (
                rng.choice(("fwd", "rev", "both"))
                if valued and fact == "has_directions"
                else None
            )
            ops.append(Update.add_edge(*e, label, direction=direction))
        elif valued:  # a direction cannot be set on a live edge: take it down
            present.discard(e)
            ops.append(Update.delete_edge(*e))
    return ops


def isolated_edge(n: int, fact: Optional[str] = None) -> AdjacencyGraph:
    """The edge ``(n, n + 1)``, which no stream over ``0..n-1`` reaches,
    carrying a value of ``fact`` (or nothing): preloaded, it makes a store
    hold the fact from window 1 without changing what any task explores."""
    g = AdjacencyGraph()
    g.add_edge(
        n,
        n + 1,
        label="x" if fact == "has_edge_labels" else None,
        direction="fwd" if fact == "has_directions" else None,
    )
    if fact == "has_vertex_labels":
        g.set_vertex_label(n, "a")
    return g


@contextmanager
def preloaded(kind: str, graph: AdjacencyGraph, path: str):
    """A ``kind`` store holding ``graph`` at timestamp 1, filled by ``path``
    (see :data:`PRELOAD_PATHS`); closed, with any server it needed, on exit."""
    closers = []
    if path == "graph":
        store = make_store(kind, graph=graph)
    elif path == "put_record":
        staged = MultiVersionStore.from_adjacency(graph, ts=1)
        store = make_store(kind)
        for v, record in staged.iter_records():
            store.put_record(v, record)
        store.set_latest_timestamp(staged.latest_timestamp)
    elif path == "checkpoint":
        staged = MultiVersionStore.from_adjacency(graph, ts=1)
        store = store_from_dict({**store_to_dict(staged), "kind": kind})
    elif path == "bulk_load":
        from repro.net import NetStoreClient, StoreServer

        if kind != "net":
            raise ValueError("bulk_load preloads only the 'net' store")
        server = StoreServer(MultiVersionStore()).start()
        closers.append(server.close)
        store = NetStoreClient(server.address, graph=graph)
    else:
        raise ValueError(f"unknown preload path {path!r}")
    closers.insert(0, store.close)
    try:
        yield store
    finally:
        for close in closers:
            close()


# -- the exploration profile against its per-task oracle -----------------------


class OracleProfile(ExplorationProfile):
    """An :class:`ExplorationProfile` whose ``record`` builds the task's
    :class:`UpdateProfile` row field by field, as every task once did; the
    oracle for the accumulated task vectors."""

    def record(self, ts, update, before, after, deltas, vertex_induced):
        if len(before) < len(after):  # the task reached a new depth
            before += (0,) * (len(after) - len(before))
        (
            filter_calls,
            filter_passes,
            match_calls,
            attempts,
            expansions,
            emits,
            rule2,
            edges_excluded,
            *depths,
        ) = [a - b for a, b in zip(after, before)]
        key = (ts, update.u, update.v, update.added)
        records = self.update_records()
        record = records.get(key)
        if record is None:
            record = records[key] = UpdateProfile(
                ts=ts, u=update.u, v=update.v, added=update.added
            )
        rem = 0
        for delta in deltas:
            if delta.status is MatchStatus.REM:
                rem += 1
        record.nodes += 1 + expansions
        record.attempts += attempts
        record.pruned_rule2 += rule2
        record.pruned_same_window += (
            attempts - expansions - rule2 if vertex_induced else edges_excluded
        )
        record.expansions += expansions
        record.filter_calls += filter_calls
        record.filter_rejected += filter_calls - filter_passes
        record.match_calls += match_calls
        record.match_rejected += match_calls - emits
        record.new += len(deltas) - rem
        record.rem += rem
        # the root is one 2-vertex node; expansions build the deeper ones
        shape = [0, 0, 1] + depths[3:]
        while len(shape) > 3 and not shape[-1]:
            shape.pop()
        record.max_depth = max(record.max_depth, len(shape) - 1)
        depth_nodes = record.depth_nodes
        depth_nodes.extend([0] * (len(shape) - len(depth_nodes)))
        for depth, n in enumerate(shape):
            depth_nodes[depth] += n


@contextmanager
def profiles_of(profile_class):
    """Backends built inside hand their engines (and forked slice workers)
    ``profile_class()`` for an exploration profile."""
    from repro.runtime import backend

    saved = backend.ExplorationProfile
    backend.ExplorationProfile = profile_class
    try:
        yield
    finally:
        backend.ExplorationProfile = saved


def readded_arc_windows(u: int, v: int, w: int) -> List[List[Update]]:
    """A feed-forward loop of arcs ``u->v``, ``v->w``, ``u->w`` in one
    window, then ``u->w`` deleted and re-added in the next: ingress defers
    the re-add a window, and the loop is back only if the deferred re-add
    kept the arc's direction."""
    arcs = [(u, v), (v, w), (u, w)]
    return [
        [Update.add_edge(a, b, direction="fwd") for a, b in arcs],
        [Update.delete_edge(u, w), Update.add_edge(u, w, direction="fwd")],
    ]


def churn_stream(seed: int, n: int = 8, length: int = 48) -> List[Update]:
    """Adds and deletes over vertices ``0..n-1``, drawn from ``seed``."""
    rng = random.Random(seed)
    possible = list(itertools.combinations(range(n), 2))
    present = set()
    ops: List[Update] = []
    while len(ops) < length:
        e = rng.choice(possible)
        if e in present:
            if rng.random() < 0.4:
                present.discard(e)
                ops.append(Update.delete_edge(*e))
        else:
            present.add(e)
            ops.append(Update.add_edge(*e))
    return ops


def crashy_profile(backend: str, algorithm: MiningAlgorithm, seed: int) -> dict:
    """``collect_profile().to_dict()`` of a profiled, crashy run of
    :func:`churn_stream` (``seed``) in windows of 6.

    Two crashes: a :class:`~repro.runtime.fault.FaultInjector` point fired
    as the queue hands out the fifth item (redelivered before it ran), and
    a second ``run_tasks`` call that raises after every task of its window
    ran, so the rerun records each of those update keys a second time.
    """
    from repro.runtime.session import StreamingSession

    session = StreamingSession(
        algorithm,
        backend,
        window_size=6,
        num_workers=2,
        profile=True,
        fault_injector=FaultInjector(CrashPlan(((0, 4),))),
    )
    run_tasks = session.backend.run_tasks
    calls = itertools.count(1)

    def crash_after_second_window(tasks):
        deltas = run_tasks(tasks)
        if next(calls) == 2:
            raise WorkerCrashed(1, 0)
        return deltas

    session.backend.run_tasks = crash_after_second_window
    try:
        session.submit_many(churn_stream(seed))
        try:
            session.flush()
        except WorkerCrashed:
            session.run_pending()
        else:
            raise AssertionError("the second window did not crash")
        return session.collect_profile().to_dict()
    finally:
        session.close()


#: (name, algorithm factory) pairs the profile oracle runs: a vertex-induced
#: app three levels deep and an edge-induced one (its same-window prunes are
#: the excluded edges)
PROFILED_APPS = (
    ("clique4", lambda: CliqueMining(4, min_size=3)),
    ("reads-everything-edge", lambda: ReadsEverything(InducedMode.EDGE)),
)


# -- the exploration node path against its two-frame oracle -------------------

#: outcomes of evaluating one subgraph version
_REJECTED, _KEPT, _MATCHED = range(3)


class OracleExplorer(Explorer):
    """An :class:`~repro.core.explore.Explorer` whose every node goes
    through ``_detect_changes`` and then ``_evaluate`` for each live
    version, as every node once did; the oracle for the explorer's inline,
    one-live-version node path (same tree, same calls, same counts).  It
    asks ``is_connected`` at every node that passed ``filter``, and ignores
    the connectivity the explorer would hand down."""

    def _explore_v(self, pre, post, start_key, c_pre, c_post, *_linked):
        metrics = self.metrics
        verts = self._verts
        depth = len(verts) + 1
        descend = depth < self.algorithm.max_size
        candidates = self._candidate_bits()
        reason_of = self.vertex_expansion_reason
        at_root = depth == 3
        expansions = rule2 = 0
        for v in sorted(candidates):
            pre_bits, post_bits = candidates[v]
            if at_root and pre_bits == post_bits:
                reason = ALLOWED
            else:
                reason = reason_of(verts, start_key, v, pre_bits, post_bits)
            if reason != ALLOWED:
                if reason == PRUNED_RULE2:
                    rule2 += 1
                continue
            expansions += 1
            verts.append(v)
            if c_pre:
                pre.append_row(pre_bits)
            if c_post:
                post.append_row(post_bits)
            c_pre2, c_post2, _, _ = self._detect_changes(c_pre, c_post)
            if descend and (c_pre2 or c_post2):
                self._explore_v(pre, post, start_key, c_pre2, c_post2)
            if c_pre:
                pre.pop_row()
            if c_post:
                post.pop_row()
            verts.pop()
        self._account(len(candidates), expansions, rule2, depth)

    def _detect_changes(self, c_pre, c_post, *_linked):
        if c_pre:
            s = self._s_pre
            s.rebind()
            state = self._evaluate(s)
            if state == _MATCHED:
                self._emit(MatchStatus.REM, s)
            elif state == _REJECTED:
                c_pre = False
        if c_post:
            s = self._s_post
            s.rebind()
            state = self._evaluate(s)
            if state == _MATCHED:
                self._emit(MatchStatus.NEW, s)
            elif state == _REJECTED:
                c_post = False
        return c_pre, c_post, None, None

    def _evaluate(self, s) -> int:
        algorithm = self.algorithm
        metrics = self.metrics
        keep = algorithm.filter(s)
        metrics.filter_calls += 1
        if not keep:
            return _REJECTED
        metrics.filter_passes += 1
        if not s.is_connected():
            return _KEPT
        matched = algorithm.match(s)
        metrics.match_calls += 1
        return _MATCHED if matched else _KEPT


class FilterRaised(Exception):
    """What :class:`LoggingAlgorithm` raises at its ``raise_at``-th filter call."""


class LoggingAlgorithm(MiningAlgorithm):
    """``inner``, logging every ``filter`` and ``match`` call in call order
    as ``(call, version, tuple(s), s.num_edges())``.

    ``version`` is ``"pre"`` or ``"post"``: which of the watched explorer's
    two views was handed over (see :meth:`watch`).  With ``raise_at`` the
    ``raise_at``-th filter call raises :class:`FilterRaised` instead of
    answering, and is not logged.
    """

    def __init__(self, inner: MiningAlgorithm, raise_at: Optional[int] = None):
        self.inner = inner
        self.max_size = inner.max_size
        self.induced = inner.induced
        self.ordered_output = inner.ordered_output
        self.uses_edge_labels = inner.uses_edge_labels
        self.uses_directions = inner.uses_directions
        self.raise_at = raise_at
        self.filter_calls = 0
        self.log: list = []
        self._pre = None

    def watch(self, explorer: Explorer) -> None:
        self._pre = explorer._s_pre

    def _record(self, call, s) -> None:
        version = "pre" if s is self._pre else "post"
        self.log.append((call, version, tuple(s), s.num_edges()))

    def filter(self, s):
        self.filter_calls += 1
        if self.filter_calls == self.raise_at:
            raise FilterRaised(self.raise_at)
        self._record("filter", s)
        return self.inner.filter(s)

    def match(self, s):
        self._record("match", s)
        return self.inner.match(s)


# -- the ingress against one-at-a-time application ----------------------------

#: the vertices the ingress machine's updates touch: few, so keys collide
MACHINE_VERTICES = range(5)
MACHINE_PAIRS = list(itertools.permutations(MACHINE_VERTICES, 2))
MACHINE_KEYS = list(itertools.combinations(MACHINE_VERTICES, 2))


def machine_settings(examples: int):
    """Fixed examples (``derandomize``), each up to 50 steps long."""
    return settings(
        derandomize=True,
        max_examples=examples,
        stateful_step_count=50,
        deadline=None,
    )


class IngressMachine(RuleBasedStateMachine):
    """The ingress node against a plain dict that applies each update alone.

    The oracle applies every submitted update in submission order, as if
    each were a window of its own: an add of a live edge and a delete or
    relabel of a missing one change nothing, a relabel keeps the edge's
    direction, a vertex delete takes every incident edge with it.  After
    every flush the store's latest snapshot must hold the oracle's edges
    with their labels and directions, and its vertex labels.  Every window
    must be a consistent snapshot: an edge alive on both sides of a window
    boundary kept its label and direction, and its endpoints their labels
    (a vertex label changes only in the window that deletes its edges, so
    they mark the matches it changes; a labelled vertex add included).
    Each submitted update is counted once, accepted or dropped, and one the
    oracle finds changes nothing is dropped.  Small window sizes close
    windows mid-stream.
    """

    kind = "mv"
    #: pairs added so far: deletes and relabels draw from them, so they
    #: hit live and once-live keys
    added = Bundle("added")

    # Hypothesis draws the first entries most; a window of 1 holds no two
    # updates to one key, so it comes last.
    @initialize(window=st.sampled_from([3, 2, 100, 1]))
    def open_store(self, window):
        self.store = make_store(self.kind)
        self.ingress = IngressNode(self.store, window_size=window)
        self.edges = {}  # key -> (label, direction in key order)
        self.labels = {}
        self.submitted = 0
        self.checked_ts = 0

    def teardown(self):
        if not hasattr(self, "store"):
            return
        try:
            self.flush()  # every run ends on a checked snapshot
        finally:
            self.store.close()

    def submit(self, update, changes_nothing):
        """Submit ``update``: counted once, and dropped if ``changes_nothing``."""
        ingress = self.ingress
        before = ingress.updates_accepted, ingress.updates_dropped
        ingress.submit(update)
        self.submitted += 1
        after = ingress.updates_accepted, ingress.updates_dropped
        assert sum(after) == self.submitted and after[0] >= 0
        if changes_nothing:
            assert after == (before[0], before[1] + 1)

    @rule(
        target=added,
        pair=st.sampled_from(MACHINE_PAIRS),
        label=st.sampled_from([None, "a", "b"]),
        direction=st.sampled_from([None, "fwd", "rev", "both"]),
    )
    def add_edge(self, pair, label, direction):
        key = edge_key(*pair)
        live = key in self.edges
        if not live:
            self.edges[key] = (label, normalize_direction(*pair, direction))
        self.submit(Update.add_edge(*pair, label, direction), live)
        return pair

    @rule(pair=added)
    def delete_edge(self, pair):
        missing = self.edges.pop(edge_key(*pair), None) is None
        self.submit(Update.delete_edge(*pair), missing)

    @rule(pair=added, label=st.sampled_from("ac"))
    def set_edge_label(self, pair, label):
        key = edge_key(*pair)
        missing = key not in self.edges
        if not missing:
            self.edges[key] = (label, self.edges[key][1])
        self.submit(Update.set_edge_label(*pair, label), missing)

    @rule(v=st.sampled_from(MACHINE_VERTICES), label=st.sampled_from(["x", "y"]))
    def set_vertex_label(self, v, label):
        self.labels[v] = label
        self.submit(Update.set_vertex_label(v, label), False)

    @rule(
        v=st.sampled_from(MACHINE_VERTICES), label=st.sampled_from([None, "x", "y"])
    )
    def add_vertex(self, v, label):
        if label is not None:
            self.labels[v] = label
        self.submit(Update.add_vertex(v, label), False)

    @rule(v=st.sampled_from(MACHINE_VERTICES))
    def delete_vertex(self, v):
        incident = [key for key in self.edges if v in key]
        for key in incident:
            del self.edges[key]
        self.submit(Update.delete_vertex(v), not incident)

    @rule()
    def flush(self):
        self.ingress.flush()
        store, ts = self.store, self.store.latest_timestamp

        def state(key, t):
            if not store.edge_alive_at(*key, t):
                return None
            return store.edge_label_at(*key, t), store.edge_direction_at(*key, t)

        assert {key: state(key, ts) for key in MACHINE_KEYS} == {
            key: self.edges.get(key) for key in MACHINE_KEYS
        }
        for v in MACHINE_VERTICES:
            assert store.vertex_label_at(v, ts) == self.labels.get(v)
        for t in range(max(self.checked_ts, 1), ts + 1):
            for key in MACHINE_KEYS:
                pre, post = state(key, t - 1), state(key, t)
                if pre is None or post is None:
                    continue
                assert pre == post, (key, t)
                for v in key:
                    assert store.vertex_label_at(v, t - 1) == store.vertex_label_at(
                        v, t
                    ), (key, v, t)
        self.checked_ts = ts


class NetIngressMachine(IngressMachine):
    """:class:`IngressMachine` with its store behind a loopback server."""

    kind = "net"

"""Seeded scenarios for the differential tests: streams, preload paths,
the delta-stream encoding they compare, the differential harness (one
generator, one runner, one checker), the per-task profile oracle, and the
per-node exploration oracle.

A scenario is replayable from its arguments alone: the update stream is
drawn from one ``random.Random(seed)``, and a store is preloaded through one
of the paths a deployment fills a store by — a graph loaded in process, a
``put_record`` replay, a checkpoint restore, or a bulk load over the wire to
an external server.  Every path must leave a store that mines the same
stream to the same bytes.

The harness (:class:`Scenario`, :func:`mine`, :func:`check`, and
:func:`replay`, which runs one cell and checks it) holds every app × store
× backend cell to :mod:`oracles`, which applies each update alone to a
plain dict graph and shares no code with the explorer.  Its static mode
(:func:`mine_static`, :func:`check_static`, :func:`replay_static`) mines a
scenario's preload graph, labels and directions included, with
:meth:`StreamingSession.run_static` and holds it to the same oracle.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from hypothesis import settings, strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, initialize, rule

import oracles
from repro.apps import CliqueMining, MotifCounting, PathMining
from repro.core.api import InducedMode, MiningAlgorithm
from repro.core.canonicality import ALLOWED, PRUNED_RULE2
from repro.core.explore import Explorer
from repro.errors import WorkerCrashed
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.canonical import motif_of
from repro.net.rpc import RetryPolicy
from repro.runtime.backend import ProcessBackend, make_backend
from repro.runtime.fault import CrashPlan, FaultInjector
from repro.runtime.session import StreamingSession
from repro.store.api import make_store
from repro.store.checkpoint import store_from_dict, store_to_dict
from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import IngressNode
from repro.telemetry import ExplorationProfile, Telemetry, UpdateProfile
from repro.types import MatchStatus, Update

#: how a store receives its initial graph (``bulk_load`` is ``net`` only)
PRELOAD_PATHS = ("graph", "put_record", "checkpoint", "bulk_load")


def stream_bytes(deltas) -> bytes:
    """Canonical byte encoding of a delta stream, one record per delta.

    Each delta is encoded on its own, as the ``repr`` of plain values:
    pickling would entangle the encoding with object identity (serial runs
    share subgraph objects across deltas, process runs return fresh
    copies, and a label read off the wire is a string of its own where an
    in-process store hands out one object twice).  Its edge set is encoded
    sorted: iteration order is not part of a frozenset's value, and a set
    rebuilt on the far side of a pipe can iterate differently from an
    equal one built in place.
    """
    return b"\x00".join(
        repr(
            (
                d.timestamp,
                d.status.value,
                d.subgraph.vertices,
                sorted(d.subgraph.edges),
                d.subgraph.vertex_labels,
                d.subgraph.edge_labels,
            )
        ).encode()
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


#: a proxied ``net`` client's deadline and retries: a dropped frame costs
#: one deadline, and eight attempts outlast any schedule the harness draws
PROXY_DEADLINE = 0.1
PROXY_RETRY = RetryPolicy(max_attempts=8, base_delay=0.005, max_delay=0.05)


def _served(served, faults, stack: ExitStack, graph=None, proxies=None):
    """A ``net`` client of an external server for ``served``, behind a
    :class:`FaultProxy` running the schedule ``faults`` (appended to
    ``proxies``) unless it is None; ``graph``, if given, is bulk-loaded
    over the wire.  ``stack`` closes the client, proxy and server."""
    from net_proxy import FaultProxy

    from repro.net import NetStoreClient, StoreServer

    server = StoreServer(served).start()
    stack.callback(server.close)
    if faults is None:
        client = NetStoreClient(server.address, graph=graph)
    else:
        proxy = FaultProxy(server.address, **faults).start()
        stack.callback(proxy.close)
        if proxies is not None:
            proxies.append(proxy)
        client = NetStoreClient(
            proxy.address, deadline=PROXY_DEADLINE, retry=PROXY_RETRY, graph=graph
        )
    stack.callback(client.close)
    return client


def _fill(store, records, latest) -> None:
    for v, record in records:
        store.put_record(v, record)
    store.set_latest_timestamp(latest)


@contextmanager
def preloaded(kind: str, graph: AdjacencyGraph, path: str, faults=None, proxies=None):
    """A ``kind`` store holding ``graph`` at timestamp 1, filled by ``path``
    (see :data:`PRELOAD_PATHS`); closed, with any server it needed, on exit.

    A ``net`` store is a client of an external server, behind a proxy
    running ``faults`` if that is given (see :func:`_served`); ``graph``
    reaches the server through the client unless ``path`` is ``graph``,
    which loads the served store in process.
    """
    if path not in PRELOAD_PATHS:
        raise ValueError(f"unknown preload path {path!r}")
    if faults is not None and kind != "net":
        raise ValueError("a fault schedule runs only under the 'net' store")
    staged = MultiVersionStore.from_adjacency(graph, ts=1)
    with ExitStack() as stack:
        if kind == "net":
            served = staged if path == "graph" else MultiVersionStore()
            bulk = graph if path == "bulk_load" else None
            store = _served(served, faults, stack, bulk, proxies)
            if path == "put_record":
                _fill(store, staged.iter_records(), staged.latest_timestamp)
            elif path == "checkpoint":
                copy = store_from_dict(store_to_dict(staged))
                _fill(store, copy.iter_records(), copy.latest_timestamp)
        elif path == "bulk_load":
            raise ValueError("bulk_load preloads only the 'net' store")
        elif path == "checkpoint":
            store = store_from_dict({**store_to_dict(staged), "kind": kind})
        else:
            store = make_store(kind, graph=graph if path == "graph" else None)
            if path == "put_record":
                _fill(store, staged.iter_records(), staged.latest_timestamp)
        if kind != "net":
            stack.callback(store.close)
        yield store


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

    The oracle (:class:`oracles.PlainGraph`, the differential harness's)
    applies every submitted update in submission order, as if each were a
    window of its own: an add of a live edge and a delete or relabel of a
    missing one change nothing, a relabel keeps the edge's direction, a
    vertex delete takes every incident edge with it.  After
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
        self.model = oracles.PlainGraph()
        self.submitted = 0
        self.checked_ts = 0

    def teardown(self):
        if not hasattr(self, "store"):
            return
        try:
            self.flush()  # every run ends on a checked snapshot
        finally:
            self.store.close()

    def submit(self, update):
        """Submit ``update``: counted once, and dropped if applying it
        alone to the model changes nothing."""
        ingress = self.ingress
        before = ingress.updates_accepted, ingress.updates_dropped
        changed = self.model.apply(update)
        ingress.submit(update)
        self.submitted += 1
        after = ingress.updates_accepted, ingress.updates_dropped
        assert sum(after) == self.submitted and after[0] >= 0
        if not changed:
            assert after == (before[0], before[1] + 1)

    @rule(
        target=added,
        pair=st.sampled_from(MACHINE_PAIRS),
        label=st.sampled_from([None, "a", "b"]),
        direction=st.sampled_from([None, "fwd", "rev", "both"]),
    )
    def add_edge(self, pair, label, direction):
        self.submit(Update.add_edge(*pair, label, direction))
        return pair

    @rule(pair=added)
    def delete_edge(self, pair):
        self.submit(Update.delete_edge(*pair))

    @rule(pair=added, label=st.sampled_from("ac"))
    def set_edge_label(self, pair, label):
        self.submit(Update.set_edge_label(*pair, label))

    @rule(v=st.sampled_from(MACHINE_VERTICES), label=st.sampled_from(["x", "y"]))
    def set_vertex_label(self, v, label):
        self.submit(Update.set_vertex_label(v, label))

    @rule(
        v=st.sampled_from(MACHINE_VERTICES), label=st.sampled_from([None, "x", "y"])
    )
    def add_vertex(self, v, label):
        self.submit(Update.add_vertex(v, label))

    @rule(v=st.sampled_from(MACHINE_VERTICES))
    def delete_vertex(self, v):
        self.submit(Update.delete_vertex(v))

    @rule()
    def flush(self):
        self.ingress.flush()
        store, ts = self.store, self.store.latest_timestamp

        def state(key, t):
            if not store.edge_alive_at(*key, t):
                return None
            return store.edge_label_at(*key, t), store.edge_direction_at(*key, t)

        assert {key: state(key, ts) for key in MACHINE_KEYS} == {
            key: self.model.edges.get(key) for key in MACHINE_KEYS
        }
        for v in MACHINE_VERTICES:
            assert store.vertex_label_at(v, ts) == self.model.labels.get(v)
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


# -- the differential harness: one generator, one runner, one checker ---------

#: the vertices a scenario's updates touch: few, so updates collide
SCENARIO_VERTICES = 7
SCENARIO_PAIRS = list(itertools.combinations(range(SCENARIO_VERTICES), 2))
#: the labels :class:`ReadsEverything` counts are among those drawn
VERTEX_LABELS = ("a", "b")
EDGE_LABELS = (None, "x", "y")
DIRECTIONS = (None, "fwd", "rev", "both")


def draw_update(rng: random.Random, earlier: List[Update] = ()) -> Update:
    """One update over :data:`SCENARIO_VERTICES`: adds with and without a
    label and a direction, deletes, relabels of either kind and vertex
    deletes, endpoints in either order.  Four times in five it touches the
    pair of an ``earlier`` edge update (one of the last three, half of
    those times), so ops on one key meet, also inside a window (a delete
    then a relabel, a delete then a re-add)."""
    touched = [(x.src, x.dst) for x in earlier if x.dst is not None]
    roll = rng.random()
    if touched and roll < 0.4:
        u, v = rng.choice(touched[-3:])
    elif touched and roll < 0.8:
        u, v = rng.choice(touched)
    else:
        u, v = rng.choice(SCENARIO_PAIRS)
    if rng.random() < 0.5:
        u, v = v, u
    roll = rng.random()
    if roll < 0.40:
        label, direction = rng.choice(EDGE_LABELS), rng.choice(DIRECTIONS)
        return Update.add_edge(u, v, label=label, direction=direction)
    if roll < 0.70:
        return Update.delete_edge(u, v)
    if roll < 0.78:
        return Update.set_vertex_label(u, rng.choice(VERTEX_LABELS))
    if roll < 0.92:
        return Update.set_edge_label(u, v, rng.choice(EDGE_LABELS[1:]))
    return Update.delete_vertex(u)


class EdgeInducedAll(MiningAlgorithm):
    """Every connected edge set spanning two or three vertices."""

    induced = InducedMode.EDGE
    max_size = 3

    def filter(self, s):
        return len(s) <= self.max_size

    def match(self, s):
        return len(s) >= 2


#: app name -> (algorithm factory, oracle: :class:`oracles.PlainGraph` ->
#: match identities); the label-reading app's oracle asks the app itself
APPS = {
    "4-C": (
        lambda: CliqueMining(4, min_size=3),
        lambda graph: oracles.clique_matches(graph, (3, 4)),
    ),
    "3-MC": (
        lambda: MotifCounting(3),
        lambda graph: oracles.connected_set_matches(graph, 3),
    ),
    "4-Path": (
        lambda: PathMining(4, min_size=3),
        lambda graph: oracles.path_matches(graph, (3, 4)),
    ),
    "edge-3": (EdgeInducedAll, lambda graph: oracles.edge_subgraph_matches(graph, 3)),
    "reads-everything": (
        lambda: ReadsEverything(InducedMode.VERTEX),
        lambda graph: oracles.view_matches(graph, ReadsEverything(InducedMode.VERTEX)),
    ),
}


class UnvetoedCliqueMining(CliqueMining):
    """4-C without the required-row veto: ``filter`` is asked about every
    child, as before the hook; what a session observes must not differ."""

    def required_row(self, n: int) -> int:
        return 0


#: the sinks a scenario may attach to the session's output stream
SINKS = (None, "count", "motif")


@dataclass
class Scenario:
    """One seeded run: what is preloaded and how, the update batches (the
    session flushes after each), the window size, and what happens in
    between.

    ``reclaims`` holds the batches whose windows run after a
    ``reclaim(low_watermark)`` made while they wait in the queue;
    ``restore_after`` is the batch after whose flush the store is
    checkpointed and mining goes on in a new session over the restored
    copy.  In ``crashes`` worker 0 crashes as the queue hands out its n-th
    item (the session's own hook) and worker 1 after the backend ran its
    n-th task, so the whole window is lost and rerun.  ``faults`` is the
    :class:`FaultProxy` schedule a ``net`` store runs behind (None: no
    proxy).  ``processes`` is how many slices a ``process`` cell cuts a
    window into; with ``shuffled`` a ``serial`` cell runs each window's
    tasks one at a time in a drawn order (and emits them in task order).
    """

    seed: int
    window: int
    preload: Tuple[tuple, ...]
    preload_labels: Tuple[tuple, ...]
    preload_path: str
    batches: Tuple[Tuple[Update, ...], ...]
    reclaims: FrozenSet[int]
    gc_enabled: bool
    restore_after: Optional[int]
    crashes: CrashPlan
    faults: Optional[dict]
    sink: Optional[str]
    processes: int
    shuffled: bool

    @classmethod
    def from_seed(cls, seed: int) -> "Scenario":
        rng = random.Random(seed)
        preload = tuple(
            (u, v, rng.choice(EDGE_LABELS), rng.choice(DIRECTIONS))
            for u, v in rng.sample(SCENARIO_PAIRS, rng.choice((0, 0, 2, 4, 7)))
        )
        preload_labels = tuple(
            (v, rng.choice(VERTEX_LABELS))
            for v in range(SCENARIO_VERTICES)
            if rng.random() < 0.3
        )
        updates: List[Update] = []
        for _ in range(rng.randint(20, 30)):
            updates.append(draw_update(rng, updates))
        cuts = sorted(rng.sample(range(1, len(updates)), rng.randint(2, 6)))
        batches = tuple(
            tuple(updates[a:b]) for a, b in zip([0, *cuts], [*cuts, len(updates)])
        )
        # fewer tasks run than updates arrive (the ingress drops some), so
        # crash points are drawn from the first half
        crash_points = {
            (worker, rng.randrange(len(updates) // 2))
            for worker in (0, 1)
            for _ in range(rng.choice((0, 1, 2, 3)))
        }
        faults = {
            "dup_every": rng.choice((0, 3, 5, 7)),
            "drop_every": rng.choice((0, 0, 11, 13)),
            "reorder_every": rng.choice((0, 0, 0, 29)),
            "delay_every": rng.choice((0, 0, 9)),
        }
        faults = {rule: n for rule, n in faults.items() if n}
        if "delay_every" in faults:
            faults["delay_s"] = 0.002
        if rng.random() < 0.25 or not faults:
            faults = None  # no proxy
        return cls(
            seed=seed,
            window=rng.choice((1, 2, 3, 6)),
            preload=preload,
            preload_labels=preload_labels,
            preload_path=rng.choice(PRELOAD_PATHS),
            batches=batches,
            reclaims=frozenset(i for i in range(len(batches)) if rng.random() < 0.4),
            gc_enabled=rng.random() < 0.3,
            restore_after=rng.choice((None, None, *range(len(batches) - 1))),
            crashes=CrashPlan(tuple(sorted(crash_points))),
            faults=faults,
            # a sink counts from an empty graph: a preloaded match's REM
            # would take a count below zero, which the aggregators reject
            sink=None if preload else rng.choice(SINKS),
            processes=rng.choice((2, 3, 5)),
            shuffled=rng.random() < 0.5,
        )

    def graph(self) -> AdjacencyGraph:
        """The preloaded graph, at timestamp 1."""
        graph = AdjacencyGraph()
        for u, v, label, direction in self.preload:
            graph.add_edge(u, v, label=label, direction=direction)
        for v, label in self.preload_labels:
            graph.add_vertex(v, label)
        return graph


@dataclass
class Mined:
    """What one cell emitted: per flush, its deltas and the sink's state
    after them; the whole stream; the windows it ran; its counter totals
    and exploration profile, summed over the sessions a restore spans; the
    crashes the sessions' own hook injected (worker 0's); the queue as
    each flush left it and each drawn reclaim's watermark; and for a
    proxied ``net`` store, what the wire went through."""

    flushes: List[tuple] = field(default_factory=list)
    deltas: list = field(default_factory=list)
    #: timestamp -> edges of the tasks the backend ran in that window
    windows: Dict[int, Set[tuple]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    profile: dict = field(default_factory=dict)
    session_crashes: int = 0
    #: per flush, the queue's ready updates and in-flight offsets after it
    queue_left: List[tuple] = field(default_factory=list)
    #: per drawn reclaim: the flush, the watermark reclaimed at, the
    #: timestamps of the windows that flush then ran, and the timestamp of
    #: the session's last window before it (0: none)
    reclaims: List[tuple] = field(default_factory=list)
    #: frames the proxies relayed (``frames``) and ``dropped``,
    #: ``duplicated``, ``delayed`` or ``reordered``; and the ``retries`` of
    #: the session's own ``net`` clients
    wire: Counter = field(default_factory=Counter)


#: which :attr:`Mined.wire` count each rule of a fault schedule drives
FAULT_COUNTS = {
    "drop_every": "dropped",
    "dup_every": "duplicated",
    "delay_every": "delayed",
    "reorder_every": "reordered",
}
#: the :class:`FaultProxy` counters :attr:`Mined.wire` sums
PROXY_COUNTS = ("frames", *FAULT_COUNTS.values())


def mine(
    scenario: Scenario,
    app: str,
    kind: str,
    backend: str,
    algorithm: Optional[MiningAlgorithm] = None,
) -> Mined:
    """Run ``scenario`` on one cell: ``app`` (or ``algorithm`` in its place)
    on a ``kind`` store and a ``backend`` backend (``process``:
    ``scenario.processes`` processes, a slice worker under every window of
    two or more tasks), telemetry and profile on."""
    if algorithm is None:
        algorithm = APPS[app][0]()
    faults = scenario.faults if kind == "net" else None
    path = scenario.preload_path
    if path == "bulk_load" and kind != "net":
        path = "put_record"  # the same record-by-record fill, in process
    injector = FaultInjector(scenario.crashes)
    shuffle = None
    if backend == "serial" and scenario.shuffled:
        shuffle = random.Random(scenario.seed)
    mined = Mined()
    profile = ExplorationProfile()
    proxies = []

    source = sink = None

    def open_session(store):
        nonlocal source, sink
        telemetry = Telemetry()
        if backend == "process":
            engine = ProcessBackend(
                store,
                algorithm,
                num_processes=scenario.processes,
                min_parallel=1,
                telemetry=telemetry,
                profile=True,
            )
        else:
            engine = make_backend(
                backend, store, algorithm, telemetry=telemetry, profile=True
            )
        run_tasks = engine.run_tasks

        def run_window(tasks):
            for ts, update in tasks:
                mined.windows.setdefault(ts, set()).add(update.key)
            if shuffle is None:
                deltas = run_tasks(tasks)
            else:  # one task at a time, in a drawn order; output in task order
                slots = [[]] * len(tasks)
                for i in shuffle.sample(range(len(tasks)), len(tasks)):
                    slots[i] = run_tasks(tasks[i : i + 1])
                deltas = [delta for slot in slots for delta in slot]
            for ts, _ in tasks:
                injector.on_task_start(1, ts)
            return deltas

        engine.run_tasks = run_window
        session = StreamingSession(
            algorithm,
            engine,
            window_size=scenario.window,
            store=store,
            gc_enabled=scenario.gc_enabled,
            telemetry=telemetry,
            fault_injector=injector,
        )
        if source is not None:  # the sink outlives a restore
            session.output_stream().for_each(source.push)
        elif scenario.sink is not None:
            source = session.output_stream()
            if scenario.sink == "count":
                sink = source.count()
            else:
                sink = source.group_by(motif_of).count()
        return session

    def close_session(session):
        for name, value in session.collect_registry().counter_totals().items():
            mined.counters[name] = mined.counters.get(name, 0) + value
        profile.merge(session.collect_profile())
        if kind == "net":
            mined.wire["retries"] += session.store.net_log.retries
        session.close()

    with ExitStack() as stack:
        store = stack.enter_context(
            preloaded(kind, scenario.graph(), path, faults, proxies)
        )
        session = open_session(store)
        try:
            for i, batch in enumerate(scenario.batches):
                published = len(session.deltas())
                session.submit_many(batch)
                session.ingress.flush()
                stats = session.window_stats
                ran_before = len(stats)
                last = stats[-1].timestamp if stats else 0
                if i in scenario.reclaims:
                    mark = session.queue.low_watermark()
                    session.store.reclaim(mark)
                while True:
                    try:
                        session.run_pending()
                        break
                    except WorkerCrashed:
                        pass  # the window is redelivered: run it again
                if i in scenario.reclaims:
                    ran = [w.timestamp for w in stats[ran_before:]]
                    mined.reclaims.append((i, mark, ran, last))
                queue = session.queue
                mined.queue_left.append((len(queue), queue.in_flight_offsets()))
                deltas = session.deltas()[published:]
                mined.deltas.extend(deltas)
                state = None
                if sink is not None:
                    state = sink.value() if scenario.sink == "count" else sink.state()
                mined.flushes.append((deltas, state))
                if i == scenario.restore_after:  # mine on over a restored copy
                    close_session(session)
                    data = store_to_dict(store)
                    if kind == "net":
                        served = store_from_dict({**data, "kind": "mv"})
                        store = _served(served, faults, stack, proxies=proxies)
                    else:
                        store = store_from_dict({**data, "kind": kind})
                        stack.callback(store.close)
                    session = open_session(store)
        finally:
            close_session(session)
    mined.profile = profile.to_dict()
    mined.session_crashes = sum(worker == 0 for worker, _ in injector.crashes)
    for proxy in proxies:
        mined.wire.update({name: getattr(proxy, name) for name in PROXY_COUNTS})
    return mined


def _shape(num_vertices: int, edges) -> tuple:
    """A connected graph's shape up to isomorphism: with at most four
    vertices, it is fixed by its size and degree sequence."""
    degrees = Counter(v for edge in edges for v in edge)
    return num_vertices, tuple(sorted(degrees.values()))


class ScenarioFailed(AssertionError):
    """A cell broke one of the checks; the message says how to replay it."""


def _failed(runner: str, seed: int, app: str, cell: tuple, what: str) -> ScenarioFailed:
    store, backend = cell
    return ScenarioFailed(
        f"seed {seed}, cell {app}/{store}/{backend}: {what}\n"
        f"replay: PYTHONPATH=src:tests python -c \"from scenarios import "
        f"{runner}; {runner}({seed}, '{app}', '{store}', '{backend}')\""
    )


def check(scenario: Scenario, app: str, cell: tuple, mined: Mined, reference: Mined):
    """Hold one cell's run to the oracle and to the reference cell.

    1. After every flush the accumulated NEW − REM equals the oracle's
       match set: no NEW of a live match, no REM of a dead one, and every
       delta holds both endpoints of a task its window ran.
    2. The delta stream is byte-identical to the reference cell's.
    3. Counter totals and the exploration profile equal the reference's.
    4. The counts agree with each other: every submitted update was
       accepted or dropped, every appended queue update was acked and ran
       as a task, and each crash of the session's hook is one restart.
       Every flush leaves nothing ready or in flight, and a drawn reclaim's
       watermark sits one below the oldest window that flush then runs or,
       when it runs none, at the last window the queue took in.
    """

    def fail(what: str) -> ScenarioFailed:
        return _failed("replay", scenario.seed, app, cell, what)

    oracle = APPS[app][1]
    graph = oracles.PlainGraph(scenario.preload, scenario.preload_labels)
    live = oracle(graph)
    for i, (batch, (deltas, sink)) in enumerate(zip(scenario.batches, mined.flushes)):
        for update in batch:
            graph.apply(update)
        for delta in deltas:
            key = delta.subgraph.identity
            ran = mined.windows.get(delta.timestamp, ())
            if not any(u in key[0] and v in key[0] for u, v in ran):
                raise fail(f"{delta} holds no task of window {delta.timestamp}")
            if delta.is_new() == (key in live):
                raise fail(f"flush {i}: {delta} is not a change of the live set")
            if delta.is_new():
                live.add(key)
            else:
                live.remove(key)
        expected = oracle(graph)
        if live != expected:
            missed = sorted(sorted(m[0]) for m in expected - live)
            kept = sorted(sorted(m[0]) for m in live - expected)
            raise fail(f"after flush {i} the deltas miss {missed} and keep {kept}")
        if scenario.sink == "count" and sink != len(live):
            raise fail(f"after flush {i} the count sink reads {sink}, not {len(live)}")
        if scenario.sink == "motif":
            got = {_shape(f.num_vertices, f.edges): n for f, n in sink.items()}
            want = Counter(_shape(len(vs), edges) for vs, edges in live)
            if got != want:
                raise fail(f"after flush {i} the motif sink reads {got}, not {want}")
    if stream_bytes(mined.deltas) != stream_bytes(reference.deltas):
        raise fail("the delta stream differs from the serial mv cell's")
    if mined.counters != reference.counters:
        diff = {
            name: (reference.counters.get(name), mined.counters.get(name))
            for name in sorted(set(mined.counters) | set(reference.counters))
            if mined.counters.get(name) != reference.counters.get(name)
        }
        raise fail(f"counter totals differ from the serial mv cell's: {diff}")
    if mined.profile != reference.profile:
        raise fail("the exploration profile differs from the serial mv cell's")

    def count(name: str) -> float:
        return mined.counters.get(f"repro_{name}_total", 0)

    submitted = sum(len(batch) for batch in scenario.batches)
    ingress = [
        count(f"ingress_updates_{verdict}")
        for verdict in ("submitted", "accepted", "dropped")
    ]
    if not ingress[0] == ingress[1] + ingress[2] == submitted:
        raise fail(
            f"{submitted} updates submitted; submitted, accepted and dropped "
            f"read {ingress}"
        )
    items = [count("queue_appended"), count("queue_acked"), count("session_updates")]
    if not items[0] == items[1] == items[2]:
        raise fail(f"queue updates appended, acked and run read {items}")
    for i, (ready, in_flight) in enumerate(mined.queue_left):
        if ready or in_flight:
            raise fail(
                f"flush {i} left {ready} updates ready and offsets {in_flight} "
                "in flight"
            )
    for i, mark, ran, last in mined.reclaims:
        want = min(ran) - 1 if ran else last
        if mark != want:
            raise fail(
                f"flush {i} reclaimed at watermark {mark}, not {want} (windows "
                f"run {ran}, the last before them {last})"
            )
    if count("session_worker_restarts") != mined.session_crashes:
        raise fail(
            f"{mined.session_crashes} session crashes, but "
            f"{count('session_worker_restarts')} worker restarts"
        )


@functools.lru_cache(maxsize=None)
def _reference(seed: int, app: str) -> Mined:
    return mine(Scenario.from_seed(seed), app, "mv", "serial")


def replay(seed: int, app: str, kind: str, backend: str) -> Mined:
    """Mine scenario ``seed`` on one cell and check it against the oracle
    and the serial ``mv`` cell; raises :class:`ScenarioFailed`, else
    returns what the cell mined."""
    scenario = Scenario.from_seed(seed)
    reference = _reference(seed, app)
    mined = (
        reference if (kind, backend) == ("mv", "serial")
        else mine(scenario, app, kind, backend)
    )
    check(scenario, app, (kind, backend), mined, reference)
    return mined


# -- static mode -------------------------------------------------------------


def mine_static(scenario: Scenario, app: str, kind: str, backend: str) -> list:
    """Mine ``scenario``'s preload graph, labels and directions included,
    with :meth:`StreamingSession.run_static` on one cell: a ``kind`` store
    and a ``backend`` backend (``process``: ``scenario.processes``
    workers)."""
    workers = scenario.processes if backend == "process" else None
    return StreamingSession.run_static(
        scenario.graph(), APPS[app][0](), backend, store=kind, num_workers=workers
    )


def check_static(scenario: Scenario, app: str, cell: tuple, deltas, reference) -> None:
    """Hold one cell's static run to the oracle on the preload graph (each
    match emitted once, as NEW) and to the serial ``mv`` cell's bytes."""

    def fail(what: str) -> ScenarioFailed:
        return _failed("replay_static", scenario.seed, app, cell, what)

    if any(not d.is_new() for d in deltas):
        raise fail("a static run emitted a REM")
    got = [d.subgraph.identity for d in deltas]
    if len(set(got)) != len(got):
        raise fail("a static run emitted a match twice")
    expected = APPS[app][1](oracles.PlainGraph(scenario.preload, scenario.preload_labels))
    if set(got) != expected:
        missed = sorted(sorted(m[0]) for m in expected - set(got))
        kept = sorted(sorted(m[0]) for m in set(got) - expected)
        raise fail(f"the static run misses {missed} and emits {kept}")
    if stream_bytes(deltas) != stream_bytes(reference):
        raise fail("the static delta stream differs from the serial mv cell's")


@functools.lru_cache(maxsize=None)
def _static_reference(seed: int, app: str) -> list:
    return mine_static(Scenario.from_seed(seed), app, "mv", "serial")


def replay_static(seed: int, app: str, kind: str, backend: str) -> list:
    """Mine scenario ``seed``'s preload graph statically on one cell and
    check it; raises :class:`ScenarioFailed`, else returns the deltas."""
    scenario = Scenario.from_seed(seed)
    reference = _static_reference(seed, app)
    deltas = (
        reference if (kind, backend) == ("mv", "serial")
        else mine_static(scenario, app, kind, backend)
    )
    check_static(scenario, app, (kind, backend), deltas, reference)
    return deltas

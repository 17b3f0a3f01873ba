"""Section 6.5.6: deletion performance.

The paper adds all LJ edges, then deletes all of them with 5-GKS-3 on 8
machines: additions take 2,756s, reverse-order deletions 2,510s (on par),
and randomly-ordered deletions 3,014s — a 20% slowdown because random
deletions create and delete additional intermediate matches.

Scaled reproduction on the labeled GKS graph, measured wall-clock:
additions vs reverse-order deletions vs random-order deletions, asserting
the same ordering and that the match set returns to empty both ways.

The random-order deletion stream is also the one place outside
``benchmarks/e2e`` where tombstone reclamation (section 5.1,
``gc_enabled=True``) has a number: the stream runs with it on and off in
alternating rounds and the two must cost the same.
"""

import random
import statistics
import time

import pytest

from _harness import (
    WINDOW,
    fmt_seconds,
    gks_bench,
    print_table,
    record,
    run_updates,
)

from repro.apps import GraphKeywordSearch
from repro.core.engine import collect_matches
from repro.graph.datasets import GKS_LABELS
from repro.graph.generators import shuffled_edges
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.types import Update


def build_store(graph):
    store = MultiVersionStore()
    for v in graph.vertices():
        store.ensure_vertex(v)
        if graph.vertex_label(v) is not None:
            store.set_vertex_label(v, 1, graph.vertex_label(v))
    return store


def test_sec656_deletions(benchmark):
    graph = gks_bench()
    edges = shuffled_edges(graph, seed=5)
    alg = lambda: GraphKeywordSearch(GKS_LABELS, k=4)

    def run():
        results = {}
        # additions
        store = build_store(graph)
        add_deltas, add_seconds, _, _ = run_updates(
            store, alg(), [(e, True) for e in edges]
        )
        results["additions"] = add_seconds
        # reverse-order deletions on the same store
        del_deltas, del_seconds, _, _ = run_updates(
            store, alg(), [(e, False) for e in reversed(edges)]
        )
        results["deletions (reverse)"] = del_seconds
        assert collect_matches(add_deltas + del_deltas) == set()

        # random-order deletions on a fresh build
        store2 = build_store(graph)
        add2, _, _, _ = run_updates(store2, alg(), [(e, True) for e in edges])
        shuffled = list(edges)
        random.Random(9).shuffle(shuffled)
        del2, rand_seconds, _, _ = run_updates(
            store2, alg(), [(e, False) for e in shuffled]
        )
        results["deletions (random)"] = rand_seconds
        assert collect_matches(add2 + del2) == set()
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [(name, fmt_seconds(s)) for name, s in results.items()]
    ratio = results["deletions (random)"] / results["deletions (reverse)"]
    rows.append(("random/reverse ratio", f"{ratio:.2f}"))
    print_table(
        "Section 6.5.6: additions vs deletions (4-GKS-3; paper ratio 1.20)",
        ["Phase", "Time"],
        rows,
    )
    record("sec656", {**results, "random_over_reverse": ratio})

    add_s = results["additions"]
    rev_s = results["deletions (reverse)"]
    # deletions cost about the same as additions (paper: 2510s vs 2756s)
    assert 0.5 * add_s < rev_s < 2.0 * add_s
    # random-order deletions stay in the same regime as reverse order.
    # The paper measures them 20% slower (extra match churn); in this
    # reproduction average neighborhood size during deletion dominates and
    # random order can come out somewhat cheaper — see EXPERIMENTS.md.
    assert 0.5 < ratio < 2.0


#: alternating on/off rounds of the reclamation pair
GC_ROUNDS = 5


def test_sec656_gc_on_off(benchmark):
    """Random-order deletion of every edge, reclaiming tombstones or not.

    Windows are flushed one at a time, as a live deployment's are, so the
    queue's low watermark follows the stream and each closing window
    reclaims the one before it.  Timed end to end (ingress, reclaim and
    mining): reclamation runs in the ingress node, outside ``run_pending``.
    """
    graph = gks_bench()
    deletions = shuffled_edges(graph, seed=5)
    random.Random(9).shuffle(deletions)
    windows = [deletions[i : i + WINDOW] for i in range(0, len(deletions), WINDOW)]

    def one_run(gc_enabled):
        session = StreamingSession(
            GraphKeywordSearch(GKS_LABELS, k=4),
            window_size=WINDOW,
            initial_graph=graph,
            gc_enabled=gc_enabled,
        )
        start = time.perf_counter()
        for window in windows:
            session.submit_many(Update.delete_edge(u, v) for u, v in window)
            session.flush()
        seconds = time.perf_counter() - start
        outcome = (session.deltas(), session.store.tombstone_count())
        session.close()
        return seconds, outcome

    def run():
        seconds = {False: [], True: []}
        outcomes = {}
        for round_ in range(GC_ROUNDS):
            for gc_enabled in (False, True) if round_ % 2 == 0 else (True, False):
                took, outcomes[gc_enabled] = one_run(gc_enabled)
                seconds[gc_enabled].append(took)
        return seconds, outcomes

    seconds, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    (deltas_off, tombstones_off), (deltas_on, tombstones_on) = (
        outcomes[False],
        outcomes[True],
    )
    off_s, on_s = statistics.median(seconds[False]), statistics.median(seconds[True])
    on_over_off = off_s / on_s  # as throughput: 1.0 = reclamation is free
    print_table(
        f"Section 6.5.6 stream, gc_enabled off vs on ({GC_ROUNDS} alternating rounds)",
        ["gc_enabled", "median", "min", "max", "tombstones left"],
        [
            ("off", fmt_seconds(off_s), fmt_seconds(min(seconds[False])),
             fmt_seconds(max(seconds[False])), tombstones_off),
            ("on", fmt_seconds(on_s), fmt_seconds(min(seconds[True])),
             fmt_seconds(max(seconds[True])), tombstones_on),
            ("on/off throughput", f"{on_over_off:.2f}", "", "", ""),
        ],
    )  # fmt: skip
    # ``raw_s`` makes the trajectory gate read ``on_s`` as a ratio to it
    record(
        "sec656_gc",
        {
            "raw_s": off_s,
            "on_s": on_s,
            # [min, max]; lists are not timing leaves of the trajectory gate
            "off_range": [min(seconds[False]), max(seconds[False])],
            "on_range": [min(seconds[True]), max(seconds[True])],
            "on_over_off": on_over_off,
            "rounds": GC_ROUNDS,
            "tombstones_off": tombstones_off,
            "tombstones_on": tombstones_on,
        },
    )
    assert deltas_on == deltas_off
    assert tombstones_off == len(deletions)
    assert tombstones_on <= WINDOW  # only the last window's are left
    assert on_over_off >= 0.9

"""Emission-path microbenchmark: what one match costs between leaf and sink.

A matched leaf is paid for four times before it is a number in the
aggregation state: ``SubgraphView.freeze()`` builds the immutable
:class:`~repro.types.MatchSubgraph`, ``MatchDelta(...)`` wraps it,
``motif_of`` keys it, and ``Stream.push_deltas`` carries it through
``group_by(MOTIF).agg(...)`` (the key call is part of the push).  This file
times each stage over the real matches of 3-MC on lj-bench, the way
``docs/internals.md`` ("Cost of one match") budgets them.

``raw_s`` is the floor — one loop over the same matches that builds the
plain tuple an emission cannot avoid — measured in the same process, so the
trajectory gate (``check_trajectory.py``) compares each stage as a ratio to
it and a slower CI box does not read as a regression.  Best-of-N, with the
stages interleaved round by round, minimizes scheduler noise.  Results land in the current PR's repo-root bench file
(see ``_harness.BENCH_PATH``).
"""

from collections import Counter

from _harness import (
    lj_bench,
    print_table,
    record_bench,
    time_best_interleaved,
    timed_static_run,
)

from repro.apps import MotifCounting
from repro.dataflow.aggregation import SumAggregator
from repro.dataflow.stream import Stream
from repro.graph.bitset import BitMatrix
from repro.graph.canonical import _triangle_form, motif_of
from repro.graph.subgraph import SubgraphView
from repro.types import MatchDelta

ROUNDS = 7


def _leaf_views(matches):
    """One live-style view per match: vertex list, triangle rows, lazy labels."""
    views = []
    for match in matches:
        slot = {v: i for i, v in enumerate(match.vertices)}
        matrix = BitMatrix.from_edges(
            len(slot), ((slot[u], slot[v]) for u, v in match.edges)
        )
        views.append(
            SubgraphView(list(match.vertices), matrix, label_fn=lambda _v: None)
        )
    return views


def test_emission_path(benchmark):
    deltas, _, _, _ = timed_static_run(lj_bench(), MotifCounting(3))
    matches = [d.subgraph for d in deltas]
    views = _leaf_views(matches)
    status = deltas[0].status

    def freeze_all():
        for view in views:
            view.rebind()
            view.freeze()

    # the stages rebuild what the engine emitted, value for value
    for view in views:
        view.rebind()
    assert [view.freeze() for view in views] == matches

    source = Stream.source()
    sink = source.group_by(motif_of).agg(SumAggregator(lambda _match: 1))
    misses_before = _triangle_form.cache_info().misses

    def measure():
        return time_best_interleaved(
            {
                "raw": lambda: [(1, status, tuple(v.vertices())) for v in views],
                "freeze": freeze_all,
                "delta": lambda: [MatchDelta(1, status, m) for m in matches],
                "key": lambda: [motif_of(m) for m in matches],
                "push": lambda: source.push_deltas(deltas),
            },
            ROUNDS,
        )

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    n = len(matches)
    # the sink saw ROUNDS identical windows; the key ran once per shape
    census = Counter(motif_of(match) for match in matches)
    assert sink.state() == {form: ROUNDS * count for form, count in census.items()}
    # three wedges (one per middle slot) and the triangle
    assert _triangle_form.cache_info().misses - misses_before <= 4

    stages = ["raw", "freeze", "delta", "key", "push"]
    print_table(
        "Cost of one match (3-MC lj-bench, %d matches, best of %d)" % (n, ROUNDS),
        ["Stage", "us / match", "x raw"],
        [
            (stage, f"{results[stage] / n * 1e6:.2f}", f"{results[stage] / results['raw']:.1f}")
            for stage in stages
        ],
    )
    data = {"workload": "3-MC lj-bench static, %d matches" % n, "matches": n}
    for stage in stages:
        data[f"{stage}_s"] = results[stage]
        data[f"{stage}_us_per_match"] = results[stage] / n * 1e6
    record_bench("emission_path", data)

    # Keying by shape: the key is the cheapest stage, not the dearest.
    assert results["key"] < results["freeze"], results

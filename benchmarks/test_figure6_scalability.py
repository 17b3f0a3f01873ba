"""Figure 6: scalability 1→8 machines with a per-operation breakdown.

The paper runs 4-C and 5-GKS-3 on LiveJournal at 1, 2, 4, and 8 machines:
both scale almost linearly (7.3x and 7.6x at 8 machines), and the runtime
decomposes into ``match``, ``filter``, ``CAN_EXPAND``, and ``other``; the
core operations scale slightly better than "other" (neighbor-set
construction, emission, dequeueing).

Scaled reproduction: the full edge stream of a uniform-degree graph is
processed with task tracing (uniform degrees keep single tasks small
relative to the total, which is what makes 1M-update windows scale in the
paper), then replayed at each cluster size.  The breakdown comes from a
timing-enabled run.
"""

import pytest

from _harness import (
    additions,
    fmt_seconds,
    gks_bench,
    print_table,
    record,
    run_updates,
)

from repro.apps import CliqueMining, GraphKeywordSearch
from repro.graph.datasets import GKS_LABELS
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.runtime.cluster import ClusterSpec
from repro.runtime.costmodel import ClusterSimulator
from repro.store.mvstore import MultiVersionStore

MACHINE_COUNTS = [1, 2, 4, 8]


def traced_stream_run(graph, algorithm):
    store = MultiVersionStore()
    for v in graph.vertices():
        store.ensure_vertex(v)
        if graph.vertex_label(v) is not None:
            store.set_vertex_label(v, 1, graph.vertex_label(v))
    stream = additions(shuffled_edges(graph, seed=4))
    deltas, seconds, metrics, engine = run_updates(
        store, algorithm, stream, window=100, trace_tasks=True, timing=True
    )
    return deltas, seconds, metrics, engine.traces


@pytest.mark.parametrize(
    "name, graph_fn, alg_fn",
    [
        ("4-C", lambda: erdos_renyi(800, 3200, seed=11),
         lambda: CliqueMining(4, min_size=3)),
        ("4-GKS-3", gks_bench, lambda: GraphKeywordSearch(GKS_LABELS, k=4)),
    ],
)
def test_figure6_scalability(benchmark, name, graph_fn, alg_fn):
    graph = graph_fn()

    def run():
        deltas, seconds, metrics, traces = traced_stream_run(graph, alg_fn())
        sim = ClusterSimulator(ClusterSpec(num_machines=1, workers_per_machine=16))
        curve = sim.scaling_curve(traces, MACHINE_COUNTS)
        return deltas, seconds, metrics, curve

    deltas, seconds, metrics, curve = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    units_per_second = metrics.work_units() / seconds
    base = curve[1].makespan_units
    breakdown = metrics.breakdown(seconds)
    total_time = sum(breakdown.values()) or 1.0
    fractions = {k: v / total_time for k, v in breakdown.items()}

    rows = []
    speedups = {}
    for m in MACHINE_COUNTS:
        makespan = curve[m].makespan_units
        speedups[m] = base / makespan
        secs = makespan / units_per_second
        rows.append(
            (
                m,
                fmt_seconds(secs),
                f"{speedups[m]:.1f}x",
                f"{curve[m].utilization:.0%}",
            )
        )
    print_table(
        f"Figure 6 ({name}): scalability over machines",
        ["Machines", "Time", "Speedup", "Utilization"],
        rows,
    )
    print_table(
        f"Figure 6 ({name}): single-node operation breakdown",
        ["Operation", "Share"],
        [(op, f"{frac:.0%}") for op, frac in fractions.items()],
    )
    record(
        f"figure6_{name}",
        {
            "speedups": {str(m): speedups[m] for m in MACHINE_COUNTS},
            "breakdown": fractions,
            "matches": len(deltas),
        },
    )

    # near-linear scaling, monotone in machine count (paper: 7.3x / 7.6x)
    assert speedups[2] > 1.5
    assert speedups[4] > speedups[2]
    assert speedups[8] > speedups[4]
    assert speedups[8] > 5.0
    # the breakdown accounts for everything and 'other' is a real fraction
    assert abs(sum(fractions.values()) - 1.0) < 1e-6
    assert fractions["other"] > 0.05

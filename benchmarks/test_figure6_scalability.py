"""Figure 6: scalability 1→8 machines with a per-operation breakdown.

The paper runs 4-C and 5-GKS-3 on LiveJournal at 1, 2, 4, and 8 machines:
both scale almost linearly (7.3x and 7.6x at 8 machines), and the runtime
decomposes into ``match``, ``filter``, ``CAN_EXPAND``, and ``other``; the
core operations scale slightly better than "other" (neighbor-set
construction, emission, dequeueing).

Scaled reproduction: the full edge stream of a uniform-degree graph is
processed once on one engine (uniform degrees keep single tasks small
relative to the total, which is what makes 1M-update windows scale in the
paper), then its tasks run again on a simulated cluster of each size.  The
breakdown comes from an ``OperationTimer`` attached to the single engine's
explorer.
"""

import pytest

from _harness import (
    additions,
    cluster_seconds,
    fmt_seconds,
    gks_bench,
    print_table,
    record,
    run_updates,
    simulate_cluster,
)

from repro.apps import CliqueMining, GraphKeywordSearch
from repro.core.metrics import OperationTimer
from repro.graph.datasets import GKS_LABELS
from repro.graph.generators import erdos_renyi, shuffled_edges
from repro.runtime.cluster import ClusterSpec
from repro.store.mvstore import MultiVersionStore

MACHINE_COUNTS = [1, 2, 4, 8]


def scaling_run(graph, algorithm):
    """Mine the stream on one engine, then on 1/2/4/8 simulated machines."""
    store = MultiVersionStore()
    for v in graph.vertices():
        store.ensure_vertex(v)
        if graph.vertex_label(v) is not None:
            store.set_vertex_label(v, 1, graph.vertex_label(v))
    stream = additions(shuffled_edges(graph, seed=4))
    timer = OperationTimer()
    deltas, seconds, metrics, tasks = run_updates(
        store, algorithm, stream, window=100, timer=timer
    )
    curve = {
        m: simulate_cluster(
            store, algorithm, tasks, ClusterSpec(num_machines=m, workers_per_machine=16), 4
        )
        for m in MACHINE_COUNTS
    }
    return deltas, seconds, metrics, timer, curve


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

    deltas, seconds, metrics, timer, curve = benchmark.pedantic(
        scaling_run, args=(graph, alg_fn()), rounds=1, iterations=1
    )
    units_per_second = metrics.work_units() / seconds
    base = curve[1].makespan_seconds
    breakdown = timer.breakdown(seconds)
    total_time = sum(breakdown.values()) or 1.0
    fractions = {k: v / total_time for k, v in breakdown.items()}

    rows = []
    speedups = {}
    for m in MACHINE_COUNTS:
        speedups[m] = base / curve[m].makespan_seconds
        rows.append(
            (
                m,
                fmt_seconds(cluster_seconds(curve[m], units_per_second)),
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

    # every cluster size emits the single engine's deltas, in task order
    assert all(curve[m].deltas == deltas for m in MACHINE_COUNTS)
    # near-linear scaling, monotone in machine count (paper: 7.3x / 7.6x)
    assert speedups[2] > 1.5
    assert speedups[4] > speedups[2]
    assert speedups[8] > speedups[4]
    assert speedups[8] > 5.0
    # the breakdown accounts for everything, every timed category was
    # reached (a timer that lost a wrapper reads 0) and 'other' is a real
    # fraction
    assert abs(sum(fractions.values()) - 1.0) < 1e-6
    assert all(fractions[op] > 0 for op in ("match", "filter", "can_expand"))
    assert fractions["other"] > 0.05

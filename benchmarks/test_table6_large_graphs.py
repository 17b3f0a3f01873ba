"""Table 6: incrementally mining large graphs (UK, DC), 1 vs 8 machines.

Paper setup (section 6.5.1): load all but 10M edges *without* computing
matches, then apply the remainder as updates and produce only the changes.
Paper results for 1M updates:

    ==========  =========  =========  =========  =========
    Metric      UK 4-C     UK 5-GKS   DC 4-C     DC 5-GKS
    1m  time    1,428s     2,905s     2.7h       8.5h
    8m  time    168s       372s       993s       1.5h
    speedup     8.5x       7.8x       9.7x       8.9x(*)
    ==========  =========  =========  =========  =========

UK scales almost linearly; DC superlinearly because 8 machines have 8x the
aggregate cache and stop re-fetching records from the graph store.  4-CL
runs ~8x faster than 4-C for comparable output (higher selectivity).

Scaled reproduction: uk-sim / dc-sim, preload all but N edges, process N
as updates on one engine, then run the same tasks on 1 vs 8 simulated
machines whose per-machine cache is sized between the two graphs' working
sets (the paper's 128 GB held UK's hot set but not DC's).  GKS runs at
k=3 labels on the labeled stand-ins.
"""

import pytest

from _harness import (
    cluster_seconds,
    fmt_rate,
    fmt_seconds,
    print_table,
    record,
    simulate_cluster,
)

from repro.apps import CliqueMining, GraphKeywordSearch, LabeledCliqueMining
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.datasets import GKS_LABELS, load_dataset
from repro.graph.generators import shuffled_edges
from repro.runtime.cluster import ClusterSpec
from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.core.engine import TesseractEngine
from repro.core.metrics import Metrics
from repro.types import Update

#: updates applied per dataset (paper: 1M of UK's 3.7B / DC's 128B)
NUM_UPDATES = 2000
#: per-machine cache: covers uk-sim's touched set, not dc-sim's
CACHE_CAPACITY = 700
#: update edges are sampled away from the extreme hubs: at 1/10^7 scale a
#: single hub edge would be ~20% of the total work, a granularity artifact
#: the paper's 1M-update streams do not have (no single update there is a
#: meaningful fraction of the makespan)
MAX_ENDPOINT_DEGREE_SUM = 120


def incremental_run(graph, algorithm, num_updates, window=100, seed=5):
    """Preload graph minus ``num_updates`` edges, process the rest.

    Returns (deltas, seconds, metrics, store, tasks): ``tasks`` are the
    ``(timestamp, EdgeUpdate)`` pairs mined, over ``store``.
    """
    edges = shuffled_edges(graph, seed=seed)
    light = [
        e
        for e in edges
        if graph.degree(e[0]) + graph.degree(e[1]) <= MAX_ENDPOINT_DEGREE_SUM
    ]
    pending = light[-num_updates:]
    pending_set = set(pending)
    preload = [e for e in edges if e not in pending_set]
    base = AdjacencyGraph()
    for v in graph.vertices():
        base.add_vertex(v, label=graph.vertex_label(v))
    for u, v in preload:
        base.add_edge(u, v)
    store = MultiVersionStore.from_adjacency(base, ts=1)
    queue = WorkQueue()
    ingress = IngressNode(store, queue, window_size=window)
    for u, v in pending:
        ingress.submit(Update.add_edge(u, v))
    ingress.flush()
    tasks = [(ts, update) for ts, updates in queue.drain_windows() for update in updates]
    metrics = Metrics()
    engine = TesseractEngine(store, algorithm, metrics=metrics)
    import time

    start = time.perf_counter()
    deltas = [d for ts, update in tasks for d in engine.process_update(ts, update)]
    seconds = time.perf_counter() - start
    return deltas, seconds, metrics, store, tasks


def simulate(store, algorithm, tasks, machines):
    spec = ClusterSpec(
        num_machines=machines,
        workers_per_machine=16,
        cache_capacity_per_machine=CACHE_CAPACITY,
    )
    return simulate_cluster(store, algorithm, tasks, spec, 6)


@pytest.mark.parametrize("dataset", ["uk-sim", "dc-sim"])
def test_table6_incremental_large_graphs(benchmark, dataset):
    plain = load_dataset(dataset)
    labeled_graph = load_dataset(dataset, labeled=True)
    workloads = [
        ("4-C", plain, CliqueMining(4, min_size=3)),
        ("3-GKS-3", labeled_graph, GraphKeywordSearch(GKS_LABELS, k=3)),
    ]

    def run_all():
        results = {}
        for name, graph, alg in workloads:
            deltas, seconds, metrics, store, tasks = incremental_run(
                graph, alg, NUM_UPDATES
            )
            units_per_second = max(metrics.work_units(), 1.0) / seconds
            sim1 = simulate(store, alg, tasks, 1)
            sim8 = simulate(store, alg, tasks, 8)
            time_1m = cluster_seconds(sim1, units_per_second)
            time_8m = cluster_seconds(sim8, units_per_second)
            results[name] = {
                "deltas": len(deltas),
                "time_1m": time_1m,
                "time_8m": time_8m,
                "rate_1m": len(deltas) / time_1m,
                "rate_8m": len(deltas) / time_8m,
                "speedup": sim8.speedup_over(sim1),
                "misses_1m": sum(sim1.per_machine_fetches.values()),
                "misses_8m": sum(sim8.per_machine_fetches.values()),
            }
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for name, r in results.items():
        rows.append(
            (
                name,
                fmt_seconds(r["time_1m"]),
                fmt_rate(r["rate_1m"]),
                fmt_seconds(r["time_8m"]),
                fmt_rate(r["rate_8m"]),
                f"{r['speedup']:.1f}x",
            )
        )
    print_table(
        f"Table 6 ({dataset}): {NUM_UPDATES} updates, 1 vs 8 machines",
        ["Algorithm", "1m time", "1m rate", "8m time", "8m rate", "speedup"],
        rows,
    )
    record(f"table6_{dataset}", results)

    for r in results.values():
        assert r["deltas"] > 0
        assert r["time_8m"] < r["time_1m"]
        # near-linear scaling (paper: 7.5x-9.7x; the superlinear DC effect
        # comes from aggregate cluster memory, which the simulated cluster's
        # FIFO machine caches do not reproduce — see EXPERIMENTS.md)
        assert r["speedup"] > 4.0
        # output rate scales with the speedup
        assert r["rate_8m"] > 3.0 * r["rate_1m"]


def test_table6_cl_selectivity(benchmark):
    """Section 6.5.1's closing point: 4-CL runs ~8x faster than 4-C on the
    same datasets thanks to its selectivity."""
    graph = load_dataset("uk-sim")
    import random

    rng = random.Random(5)
    for v in graph.vertices():
        graph.set_vertex_label(v, rng.choice(["a", "b", "c", "d", "e"]))

    def run():
        _, c_seconds, *_ = incremental_run(
            graph, CliqueMining(4, min_size=4), NUM_UPDATES
        )
        _, cl_seconds, *_ = incremental_run(
            graph, LabeledCliqueMining(4, min_size=4), NUM_UPDATES
        )
        return c_seconds, cl_seconds

    c_seconds, cl_seconds = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Table 6 follow-up: selectivity of 4-CL vs 4-C (uk-sim)",
        ["Algorithm", "Time", "vs 4-C"],
        [
            ("4-C", fmt_seconds(c_seconds), "1.0x"),
            ("4-CL", fmt_seconds(cl_seconds), f"{c_seconds / cl_seconds:.1f}x faster"),
        ],
    )
    record(
        "table6_selectivity",
        {"c_seconds": c_seconds, "cl_seconds": cl_seconds},
    )
    assert cl_seconds < c_seconds

"""Ablations of Tesseract's design choices (beyond the paper's figures).

DESIGN.md calls out three load-bearing choices; each gets a bench:

1. **Dynamic work assignment** (section 5.3) vs hash-partitioning updates
   to fixed workers — dynamic assignment absorbs skew in task cost.
2. **Update canonicality** (section 4.4.1) — without symmetry breaking an
   enumerator visits every automorphic ordering of every match.
3. **Hash sharding of the graph store** (section 4.1) — record fetches
   spread evenly over shards, so no shard becomes a hotspot.
"""

import pytest

from _harness import additions, lj_bench, print_table, record, run_updates

from repro.apps import CliqueMining
from repro.baselines.static_engine import PatternMatcher
from repro.graph.generators import shuffled_edges
from repro.graph.pattern import Pattern
from repro.runtime.cluster import ClusterSpec
from repro.runtime.costmodel import ClusterSimulator
from repro.runtime.scheduler import DynamicScheduler, StaticPartitionScheduler
from repro.store.mvstore import MultiVersionStore


def test_ablation_dynamic_vs_static_assignment(benchmark):
    graph = lj_bench()

    def run():
        store = MultiVersionStore()
        for v in graph.vertices():
            store.ensure_vertex(v)
        _, _, _, engine = run_updates(
            store,
            CliqueMining(4, min_size=3),
            additions(shuffled_edges(graph, seed=4)),
            trace_tasks=True,
        )
        traces = engine.traces
        spec = ClusterSpec(num_machines=8, workers_per_machine=16)
        dyn = ClusterSimulator(spec, DynamicScheduler()).simulate(traces)
        static = ClusterSimulator(spec, StaticPartitionScheduler()).simulate(traces)
        return dyn, static

    dyn, static = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: dynamic work assignment vs static partitioning (4-C)",
        ["Scheduler", "Makespan (units)", "Utilization"],
        [
            ("dynamic (Tesseract)", f"{dyn.makespan_units:.0f}", f"{dyn.utilization:.0%}"),
            ("static partition", f"{static.makespan_units:.0f}", f"{static.utilization:.0%}"),
        ],
    )
    record(
        "ablation_scheduling",
        {
            "dynamic_makespan": dyn.makespan_units,
            "static_makespan": static.makespan_units,
            "advantage": static.makespan_units / dyn.makespan_units,
        },
    )
    assert dyn.makespan_units <= static.makespan_units
    assert dyn.utilization >= static.utilization


def test_ablation_symmetry_breaking(benchmark):
    graph = lj_bench()
    pattern = Pattern.clique(3)

    def run():
        with_sb = PatternMatcher(pattern, symmetry_breaking=True)
        without_sb = PatternMatcher(pattern, symmetry_breaking=False)
        return with_sb.count(graph), without_sb.count(graph)

    canonical, duplicated = benchmark.pedantic(run, rounds=1, iterations=1)
    automorphisms = len(pattern.automorphisms())
    print_table(
        "Ablation: symmetry breaking (triangles)",
        ["Mode", "Matches enumerated"],
        [
            ("with symmetry breaking", canonical),
            ("without", duplicated),
            ("automorphism factor", automorphisms),
        ],
    )
    record(
        "ablation_symmetry",
        {"canonical": canonical, "duplicated": duplicated, "factor": automorphisms},
    )
    # without canonical ordering, every match is found |Aut| times
    assert duplicated == canonical * automorphisms


def test_ablation_generality_tax(benchmark):
    """What does the general programming model cost over specialization?

    Three ways to find exactly-4-cliques: the hand-written anti-monotone
    filter (CliqueMining), the same pattern compiled onto the general
    engine (PatternQuery), and the specialized static matcher
    (PatternMatcher).  All must agree; the runtime spread is the price of
    generality at each level.
    """
    import time

    from _harness import fmt_seconds, timed_static_run
    from repro.apps import PatternQuery
    from repro.apps.cliques import CliqueMining as CM
    from repro.core.engine import collect_matches

    graph = lj_bench()

    def run():
        _, handwritten_s, _, _ = timed_static_run(graph, CM(4, min_size=4))
        deltas, compiled_s, _, _ = timed_static_run(
            graph, PatternQuery(Pattern.clique(4))
        )
        matcher = PatternMatcher(Pattern.clique(4))
        start = time.perf_counter()
        specialized = matcher.matches(graph)
        specialized_s = time.perf_counter() - start
        assert len(collect_matches(deltas)) == len(specialized)
        return handwritten_s, compiled_s, specialized_s

    handwritten_s, compiled_s, specialized_s = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    from _harness import fmt_seconds as fmt

    print_table(
        "Ablation: generality tax on exactly-4-cliques",
        ["Implementation", "Time"],
        [
            ("PatternMatcher (specialized)", fmt(specialized_s)),
            ("CliqueMining (hand-written filter)", fmt(handwritten_s)),
            ("PatternQuery (compiled pattern)", fmt(compiled_s)),
        ],
    )
    record(
        "ablation_generality",
        {
            "specialized_s": specialized_s,
            "handwritten_s": handwritten_s,
            "compiled_s": compiled_s,
        },
    )
    # the specialized matcher is fastest; the compiled query pays for its
    # canonical-form filter relative to the hand-written predicate
    assert specialized_s <= handwritten_s
    assert handwritten_s <= compiled_s * 1.2  # hand-written no worse


def test_ablation_cost_model_agreement(benchmark):
    """The two independently-built distributed simulators (trace replay vs
    execute-while-simulating) must agree on scaling direction and be
    within a small factor on speedup magnitude."""
    from _harness import additions, run_updates
    from repro.graph.generators import erdos_renyi, shuffled_edges
    from repro.runtime.backend import SimulatedBackend
    from repro.store.mvstore import MultiVersionStore
    from repro.streaming.ingress import IngressNode
    from repro.streaming.queue import WorkQueue
    from repro.types import Update

    graph = erdos_renyi(500, 2000, seed=19)

    def run():
        # build tasks once
        store = MultiVersionStore()
        queue = WorkQueue()
        ingress = IngressNode(store, queue, window_size=100)
        ingress.submit_many(
            Update.add_edge(u, v) for u, v in shuffled_edges(graph, seed=2)
        )
        ingress.flush()
        tasks = [(item.timestamp, item.update) for item in queue.drain()]
        # model A: trace replay
        store2 = MultiVersionStore()
        _, _, _, engine = run_updates(
            store2,
            CliqueMining(4, min_size=3),
            additions(shuffled_edges(graph, seed=2)),
            trace_tasks=True,
        )
        replay = {}
        for m in (1, 8):
            spec = ClusterSpec(num_machines=m, workers_per_machine=16)
            replay[m] = ClusterSimulator(spec).simulate(engine.traces).makespan_units
        # model B: execute while simulating
        executed = {}
        for m in (1, 8):
            spec = ClusterSpec(num_machines=m, workers_per_machine=16)
            backend = SimulatedBackend(store, CliqueMining(4, min_size=3), spec)
            backend.run_tasks(tasks)
            executed[m] = backend.last_result.makespan_seconds
        return replay, executed

    replay, executed = benchmark.pedantic(run, rounds=1, iterations=1)
    replay_speedup = replay[1] / replay[8]
    executed_speedup = executed[1] / executed[8]
    print_table(
        "Ablation: cost-model cross-validation (4-C, 1 vs 8 machines)",
        ["Model", "Speedup 1->8"],
        [
            ("trace replay", f"{replay_speedup:.2f}x"),
            ("execute-while-simulating", f"{executed_speedup:.2f}x"),
        ],
    )
    record(
        "ablation_costmodel_agreement",
        {"replay_speedup": replay_speedup, "executed_speedup": executed_speedup},
    )
    assert replay_speedup > 1.0 and executed_speedup > 1.0
    ratio = replay_speedup / executed_speedup
    assert 1 / 3 < ratio < 3  # same regime from independent constructions


def test_ablation_shard_balance(benchmark):
    graph = lj_bench()

    def run():
        store = MultiVersionStore.from_adjacency(graph, ts=1, num_shards=8)
        for v in graph.vertices():
            store.fetch_record(v)
        return store.access_stats

    stats = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(
        "Ablation: shard balance of record fetches",
        ["Shard", "Fetches"],
        sorted(stats.per_shard.items()),
    )
    record(
        "ablation_sharding",
        {"imbalance": stats.imbalance(), "per_shard": stats.per_shard},
    )
    assert len(stats.per_shard) == 8
    # max/mean load ratio stays near 1 (hash placement balances records)
    assert stats.imbalance() < 1.3

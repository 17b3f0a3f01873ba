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

from _harness import (
    additions,
    lj_bench,
    print_table,
    record,
    run_updates,
    simulate_cluster,
)

from repro.apps import CliqueMining
from repro.baselines.static_engine import PatternMatcher
from repro.graph.generators import shuffled_edges
from repro.graph.pattern import Pattern
from repro.runtime.backend import SimulatedBackend
from repro.runtime.cluster import ClusterSpec
from repro.runtime.scheduler import DynamicScheduler, StaticPartitionScheduler
from repro.store.mvstore import MultiVersionStore


def test_ablation_dynamic_vs_static_assignment(benchmark):
    graph = lj_bench()

    def run():
        store = MultiVersionStore()
        for v in graph.vertices():
            store.ensure_vertex(v)
        algorithm = CliqueMining(4, min_size=3)
        _, _, _, tasks = run_updates(
            store, algorithm, additions(shuffled_edges(graph, seed=4))
        )
        spec = ClusterSpec(num_machines=8, workers_per_machine=16)
        dyn = simulate_cluster(store, algorithm, tasks, spec, 4, DynamicScheduler())
        static = simulate_cluster(
            store, algorithm, tasks, spec, 4, StaticPartitionScheduler()
        )
        return dyn, static

    dyn, static = benchmark.pedantic(run, rounds=1, iterations=1)
    # in work units, the engine's own cost measure: seconds would depend on the box
    dyn_units = dyn.makespan_seconds / SimulatedBackend.seconds_per_work_unit
    static_units = static.makespan_seconds / SimulatedBackend.seconds_per_work_unit
    print_table(
        "Ablation: dynamic work assignment vs static partitioning (4-C)",
        ["Scheduler", "Makespan (units)", "Utilization"],
        [
            ("dynamic (Tesseract)", f"{dyn_units:.0f}", f"{dyn.utilization:.0%}"),
            ("static partition", f"{static_units:.0f}", f"{static.utilization:.0%}"),
        ],
    )
    record(
        "ablation_scheduling",
        {
            "dynamic_makespan": dyn_units,
            "static_makespan": static_units,
            "advantage": static_units / dyn_units,
        },
    )
    assert dyn.makespan_seconds <= static.makespan_seconds
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

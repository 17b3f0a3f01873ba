"""Table 5: Peregrine vs PeregrineMat vs Tesseract, single machine.

Paper numbers (LiveJournal, one machine):

    =========  ==========  =============  ==========
    Algorithm  Peregrine   PeregrineMat   Tesseract
    4-C        473s        1855s          1015s
    4-MC       2.6h        >24h           12.3h
    =========  ==========  =============  ==========

Peregrine's default mode only *counts* matches; PeregrineMat materializes
and outputs them, which is the apples-to-apples comparison (section 6.4).
Peregrine crashes on 4-FSM-2K in the paper; our pattern-aware baseline has
no FSM support at all, reported as a dash.

Scaled reproduction on ``lj-bench`` with 4-C and 3-MC, all measured
wall-clock on one machine.  Shape: counting-only Peregrine is fastest;
Tesseract (which materializes, supports evolving graphs, and runs its
general engine) lands between Peregrine and a bounded multiple of
PeregrineMat.
"""

import statistics
import time

import pytest

from _harness import (
    cluster_seconds,
    collected,
    fmt_seconds,
    lj_bench,
    print_table,
    record,
    simulate_cluster,
    timed_static_run,
)

from repro.apps import CliqueMining, MotifCounting
from repro.baselines.peregrine import Peregrine
from repro.runtime.cluster import ClusterSpec
from repro.store.mvstore import MultiVersionStore


@pytest.fixture(scope="module")
def graph():
    return lj_bench()


def test_table5_single_node(benchmark, graph):
    workloads = [
        ("4-C", CliqueMining(4, min_size=4), Peregrine.for_cliques(4)),
        ("3-MC", MotifCounting(3, min_size=3), Peregrine.for_motifs(3)),
    ]

    def run_all():
        results = {}
        for name, alg, pere in workloads:
            count_run = pere.count(graph)
            mat_run = pere.materialize(graph)
            deltas, tess_seconds, _, _ = timed_static_run(graph, alg)
            assert len(deltas) == len(mat_run.matches)
            results[name] = {
                "peregrine": count_run.wall_seconds,
                "peregrine_mat": mat_run.wall_seconds,
                "tesseract": tess_seconds,
                "matches": len(deltas),
            }
        results["3-FSM-20"] = {
            "peregrine": None,  # Peregrine crashes on FSM in the paper
            "peregrine_mat": None,
            "tesseract": None,
            "matches": None,
        }
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_table(
        "Table 5: single machine (lj-bench)",
        ["Algorithm", "Peregrine", "PeregrineMat", "Tesseract", "matches"],
        [
            (
                name,
                fmt_seconds(r["peregrine"]),
                fmt_seconds(r["peregrine_mat"]),
                fmt_seconds(r["tesseract"]),
                r["matches"] if r["matches"] is not None else "—",
            )
            for name, r in results.items()
        ],
    )
    record("table5", results)

    for name in ("4-C", "3-MC"):
        r = results[name]
        # counting-only Peregrine is the fastest configuration (25%
        # tolerance: 4-C runs are tens of milliseconds and materialization
        # overhead there is within run-to-run noise)
        assert r["peregrine"] <= r["tesseract"]
        assert r["peregrine"] <= r["peregrine_mat"] * 1.25
        # Tesseract stays within a bounded factor of the specialized
        # counting system despite materializing all matches on its general,
        # evolving-graph engine.  The paper measures 2.1x and 4.7x; the
        # pure-Python reproduction pays more per explored subgraph (object
        # construction dominates), widening the gap — see EXPERIMENTS.md.
        assert r["tesseract"] / r["peregrine"] < 60.0


#: alternating PeregrineMat / Tesseract rounds behind each table5_cost figure
COST_ROUNDS = 9


def test_table5_cost_metric(benchmark, graph):
    """The COST metric of section 6.4: the number of workers at which
    Tesseract outperforms the efficient single-threaded implementation
    (PeregrineMat).  Paper: COST of 3 for 4-C and 5 for 4-MC.

    Both sides are timed in :data:`COST_ROUNDS` alternating rounds (the
    first side swaps each round) and the COST search uses the medians.
    PeregrineMat's median is recorded as ``raw_s``, so the trajectory gate
    compares Tesseract's time as a ratio to it rather than either
    machine-dependent wall time."""
    alg = CliqueMining(4, min_size=4)

    def mat():
        return Peregrine.for_cliques(4).materialize(graph).wall_seconds

    def tess():
        return timed_static_run(graph, alg)

    def run():
        mat_samples, tess_samples = [], []
        for round_ in range(COST_ROUNDS):
            for side in (mat, tess) if round_ % 2 == 0 else (tess, mat):
                if side is mat:
                    mat_samples.append(collected(mat))
                else:
                    deltas, seconds, metrics, tasks = collected(tess)
                    tess_samples.append(seconds)
        mat_seconds = statistics.median(mat_samples)
        tess_seconds = statistics.median(tess_samples)
        ratios = sorted(t / m for t, m in zip(tess_samples, mat_samples))
        units_per_second = metrics.work_units() / tess_seconds
        store = MultiVersionStore.from_adjacency(graph, ts=1)
        cost = None
        for workers in range(1, 257):
            spec = ClusterSpec(num_machines=1, workers_per_machine=workers)
            result = simulate_cluster(store, alg, tasks, spec, 4)
            if cluster_seconds(result, units_per_second) < mat_seconds:
                cost = workers
                break
        return cost, mat_seconds, tess_seconds, ratios

    cost, mat_seconds, tess_seconds, ratios = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    print_table(
        "Table 5 follow-up: COST vs PeregrineMat (4-C; paper: COST = 3)",
        ["Metric", "Value"],
        [
            (f"PeregrineMat single-thread, median of {COST_ROUNDS}", fmt_seconds(mat_seconds)),
            (f"Tesseract single-thread, median of {COST_ROUNDS}", fmt_seconds(tess_seconds)),
            ("Tesseract / PeregrineMat per round", f"{ratios[0]:.2f} .. {ratios[-1]:.2f}"),
            ("COST (workers to beat it)", cost if cost else "> 256"),
        ],
    )
    record(
        "table5_cost",
        {
            "cost": cost,
            "raw_s": mat_seconds,
            "tess_s": tess_seconds,
            "rounds": COST_ROUNDS,
            "ratio_range": [ratios[0], ratios[-1]],
        },
    )
    # the system does overtake the single-threaded implementation at some
    # finite scale (the paper's COST is 3; ours is larger, see EXPERIMENTS.md)
    assert cost is not None

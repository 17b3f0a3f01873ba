"""Node-path microbenchmark: what one EXPLORE child costs.

Most nodes a mining run builds are a candidate appended, handed to
``filter``, rejected and popped again (``docs/internals.md``, "Cost of one
node").  This file times that path on two kinds of child, over one root
edge ``(0, 1)`` added at timestamp 2 whose endpoint 0 has ``SPOKES`` old
neighbours, each a candidate of the root's one EXPLORE call:

- ``vetoed``: 4-C.  The pre version of the added edge fails ``filter`` at
  the root, so every child is a post-version child of the one-live-version
  loop; its row misses slot 1, which ``CliqueMining.required_row`` names,
  so it is rejected on the row: nothing is built and ``filter`` is not
  called.
- ``one_version``: the same tree through a 4-C twin that declares no
  required row, so every child (a wedge) is built, handed to ``filter``
  and rejected: the path every rejected child took before the veto.
- ``two_version``: 3-MC.  Both versions pass ``filter`` at the root, so
  every child is evaluated twice (``_detect_changes``); the post version is
  a connected wedge, a match, and is emitted.

Each stage runs whole ``explore_update`` calls on one warm
:class:`~repro.store.snapshot.ExplorationView`, so the store's adjacency
derivation is out of the number and the per-update fixed cost is spread
over ``SPOKES`` children.  ``raw_s`` is the floor: a plain loop over the
same candidates that appends, counts the edges a clique test needs and
pops, measured in the same process, so the trajectory gate
(``check_trajectory.py``) holds each stage as a ratio to it.  Best-of-N
with the stages interleaved round by round
(``_harness.time_best_interleaved``, as ``test_emission_path.py`` times
its stages).  Results land in the current PR's repo-root bench file (see
``_harness.BENCH_PATH``).
"""

from _harness import print_table, record_bench, time_best_interleaved

from repro.apps import CliqueMining, MotifCounting
from repro.core.api import MiningAlgorithm
from repro.core.explore import Explorer
from repro.graph.adjacency import AdjacencyGraph
from repro.store.mvstore import MultiVersionStore
from repro.store.snapshot import ExplorationView
from repro.types import EdgeUpdate

SPOKES = 2000
CALLS = 5
ROUNDS = 9


class UnvetoedCliqueMining(CliqueMining):
    """4-C declaring no required row, as ``tests/scenarios.py``'s twin:
    ``filter`` rejects each child."""

    required_row = MiningAlgorithm.required_row


def _star_store():
    """Spokes ``(0, v)`` for ``v`` in ``2..SPOKES + 1`` at timestamp 1, and
    the root edge ``(0, 1)`` added at timestamp 2."""
    graph = AdjacencyGraph()
    for v in range(2, SPOKES + 2):
        graph.add_edge(0, v)
    store = MultiVersionStore.from_adjacency(graph, ts=1)
    store.add_edge(0, 1, 2)
    return store


def _explore(algorithm, view, update):
    explorer = Explorer(algorithm)

    def run():
        for _ in range(CALLS):
            explorer.explore_update(view, update)

    return explorer, run


def test_node_path(benchmark):
    view = ExplorationView(_star_store(), 2)
    update = EdgeUpdate(0, 1, added=True)
    vetoing, vetoed = _explore(CliqueMining(4, min_size=3), view, update)
    one, one_version = _explore(UnvetoedCliqueMining(4, min_size=3), view, update)
    two, two_version = _explore(MotifCounting(3), view, update)
    spokes = list(range(2, SPOKES + 2))

    def raw():
        for _ in range(CALLS):
            verts = [0, 1]
            rows = [0, 1]
            edges = 1
            for v in spokes:
                verts.append(v)
                rows.append(1)
                n = len(verts)
                if edges + rows[-1].bit_count() == n * (n - 1) // 2:
                    raise AssertionError(v)
                rows.pop()
                verts.pop()

    def measure():
        return time_best_interleaved(
            {
                "raw": raw,
                "vetoed": vetoed,
                "one_version": one_version,
                "two_version": two_version,
            },
            ROUNDS,
        )

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    # the tree each stage walked: every spoke is a child of the root, the
    # 4-C child is evaluated once (post) and rejected (vetoed: counted as
    # a rejecting filter call), the 3-MC child is evaluated in both
    # versions and emitted once (NEW)
    calls = ROUNDS * CALLS
    for explorer in (vetoing, one, two):
        assert explorer.metrics.expansions == calls * SPOKES
    for explorer in (vetoing, one):
        assert explorer.metrics.filter_calls == calls * (2 + SPOKES)
        assert explorer.metrics.filter_passes == calls
        assert explorer.metrics.emits == 0
    assert two.metrics.filter_calls == calls * (2 + 2 * SPOKES)
    assert two.metrics.emits == calls * SPOKES

    children = SPOKES * CALLS
    stages = ["raw", "vetoed", "one_version", "two_version"]
    print_table(
        "Cost of one EXPLORE child (%d spokes, best of %d)" % (SPOKES, ROUNDS),
        ["Stage", "us / child", "x raw"],
        [
            (
                stage,
                f"{results[stage] / children * 1e6:.2f}",
                f"{results[stage] / results['raw']:.1f}",
            )
            for stage in stages
        ],
    )
    data = {
        "workload": "root (0, 1) added, %d old spokes at 0, %d calls" % (SPOKES, CALLS),
        "children": SPOKES * CALLS,
    }
    for stage in stages:
        data[f"{stage}_s"] = results[stage]
        data[f"{stage}_us_per_child"] = results[stage] / children * 1e6
    record_bench("node_path", data)

    # a vetoed child is never built; a one-version child is evaluated once
    # and emits nothing
    assert results["vetoed"] < results["one_version"], results
    assert results["one_version"] < results["two_version"], results

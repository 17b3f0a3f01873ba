"""Output checks (a)-(d).  Every run performs (a) and (b); (c) and (d)
compare runs, so whoever holds several runs (``suite.py``, the self-check)
performs them.

(a) exactly once: no ``(ts, status, vertices, edges)`` delta is emitted
    twice;
(b) independent oracle: the net NEW-REM count per pattern equals the
    Peregrine-style baseline's count on the final snapshot minus its count
    on the preload, where both snapshots come from a plain-set replay of the
    inputs (never from the store under test) — and the store's own final
    edge set equals that replay;
(c) the four ``clique4-*`` workloads produce one identical sha256 over the
    sorted delta listing;
(d) the ``core.*`` counters are identical across those four and across
    repeats of one seed.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.baselines.peregrine import Peregrine
from repro.graph.adjacency import AdjacencyGraph
from repro.types import MatchDelta, Update, UpdateKind, edge_key

Edge = Tuple[int, int]


def delta_key(delta: MatchDelta) -> tuple:
    sub = delta.subgraph
    return (
        delta.timestamp,
        delta.status.value,
        tuple(sorted(sub.vertices)),
        tuple(sorted(sub.edges)),
    )


def delta_keys(deltas: Iterable[MatchDelta]) -> List[tuple]:
    return [delta_key(d) for d in deltas]


def duplicates(keys: Sequence[tuple]) -> int:
    """(a): how many keys repeat an earlier ``(ts, status, vertices, edges)``."""
    return len(keys) - len(set(keys))


def listing_digest(keys: Iterable[tuple]) -> str:
    """(c): sha256 over the sorted delta listing."""
    sha = hashlib.sha256()
    for key in sorted(keys):
        sha.update(repr(key).encode())
        sha.update(b"\n")
    return sha.hexdigest()


# -- (b) the oracle -------------------------------------------------------------


def replay(base_edges: Sequence[Edge], updates: Iterable[Update]) -> Set[Edge]:
    """Plain-set replay of the inputs: the edge set after ``updates``."""
    edges = {edge_key(u, v) for u, v in base_edges}
    for upd in updates:
        key = edge_key(upd.src, upd.dst)
        if upd.kind is UpdateKind.ADD_EDGE:
            edges.add(key)
        else:
            edges.discard(key)
    return edges


def pattern_of(app: str, num_vertices: int, num_edges: int) -> str:
    if app == "clique4":
        return f"clique{num_vertices}"
    return "triangle" if num_edges == 3 else "wedge"


def net_counts(app: str, deltas: Iterable[MatchDelta]) -> Dict[str, int]:
    """Net NEW-REM per pattern, from the program's deltas."""
    net: Counter = Counter()
    for d in deltas:
        sub = d.subgraph
        net[pattern_of(app, len(sub.vertices), len(sub.edges))] += d.sign()
    return {k: v for k, v in net.items() if v}


def oracle_counts(app: str, edges: Iterable[Edge]) -> Dict[str, int]:
    """Per-pattern match counts of one snapshot, by the static baseline."""
    graph = AdjacencyGraph.from_edges(sorted(edges))
    if app == "clique4":
        return {
            f"clique{k}": Peregrine.for_cliques(k).count(graph).total for k in (3, 4)
        }
    if app == "motif3":
        run = Peregrine.for_motifs(3).count(graph)
        return {
            pattern_of(app, 3, len(pattern.edges)): n
            for pattern, n in run.counts.items()
        }
    return {}


def oracle_mismatches(
    app: str,
    deltas: Iterable[MatchDelta],
    base_edges: Sequence[Edge],
    final_edges: Set[Edge],
) -> List[str]:
    """(b): patterns whose net delta count disagrees with the oracle's diff."""
    before = oracle_counts(app, base_edges)
    after = oracle_counts(app, final_edges)
    got = net_counts(app, deltas)
    problems = []
    for pattern in sorted(set(before) | set(after) | set(got)):
        want = after.get(pattern, 0) - before.get(pattern, 0)
        if got.get(pattern, 0) != want:
            problems.append(
                f"{pattern}: net NEW-REM {got.get(pattern, 0)}, oracle diff {want}"
            )
    return problems


def store_mismatch(store, final_edges: Set[Edge]) -> List[str]:
    """(b): the store's own final edge set against the replay."""
    have = set(store.edges_at(store.latest_timestamp))
    if have == final_edges:
        return []
    return [
        f"store edge set differs from replay: {len(have - final_edges)} extra, "
        f"{len(final_edges - have)} missing"
    ]


def check_run(
    app: str,
    deltas: Sequence[MatchDelta],
    keys: Sequence[tuple],
    base_edges: Sequence[Edge],
    processed: Sequence[Update],
    store,
) -> List[str]:
    """Checks (a) and (b) for one run; returns the list of failures.

    ``keys`` is ``delta_keys(deltas)``, which the caller also digests.
    """
    problems = []
    dup = duplicates(keys)
    if dup:
        problems.append(f"{dup} duplicate deltas (exactly-once violated)")
    final_edges = replay(base_edges, processed)
    problems += oracle_mismatches(app, deltas, base_edges, final_edges)
    problems += store_mismatch(store, final_edges)
    return problems


# -- (c), (d): across runs --------------------------------------------------------

CORE_COUNTERS = (
    "core.expansions",
    "core.can_expand_calls",
    "core.filter_calls",
    "core.match_calls",
    "core.emits",
    "core.explore_calls",
)


def cross_run_problems(runs: Sequence[dict], same_stream: Sequence[str]) -> List[str]:
    """Checks (c) and (d) over run records (see ``run.py`` for the shape).

    Runs are grouped by seed; within a seed, all runs of one workload — and
    all runs of the ``same_stream`` workloads together — must agree on the
    digest and on every ``core.*`` counter.
    """
    problems = []
    groups: Dict[tuple, List[dict]] = {}
    for run in runs:
        shared = "clique4-*" if run["workload"] in same_stream else run["workload"]
        groups.setdefault((run["seed"], run["scale"], shared), []).append(run)
    for (seed, _scale, name), members in sorted(groups.items()):
        digests = {r["digest"] for r in members}
        if len(digests) > 1:
            problems.append(f"{name} seed {seed}: {len(digests)} distinct delta digests")
        for counter in CORE_COUNTERS:
            values = {r["counts"][counter] for r in members}
            if len(values) > 1:
                problems.append(f"{name} seed {seed}: {counter} differs: {sorted(values)}")
    return problems

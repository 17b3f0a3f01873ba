"""Shared helpers for the benchmark suite.

Every benchmark regenerates one table or figure from the paper's evaluation
(section 6) at laptop scale.  Graphs are the scaled dataset stand-ins (see
DESIGN.md "Substitutions"); each file prints the same rows/series the paper
reports and appends its measurements to ``benchmarks/results.json``, which
EXPERIMENTS.md summarizes.

Scale notes
-----------
* ``lj_bench`` is a further-scaled LiveJournal stand-in used where the full
  ``lj-sim`` graph would push a pure-Python run into minutes per cell.
* GKS benchmarks use a uniform-degree labeled graph: size-4 enumeration with
  unlabeled (white) vertices around preferential-attachment hubs is
  prohibitively slow in pure Python.  All systems run the same graph, so
  ratios remain meaningful.
* The paper's window of 100K updates scales to 100 updates.
* Multi-machine numbers come from :func:`simulate_cluster`: every task of a
  run, executed again on a :class:`~repro.runtime.backend.SimulatedBackend`
  and converted to seconds with the single-threaded run's own speed.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.engine import TesseractEngine
from repro.core.metrics import Metrics, OperationTimer
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.datasets import GKS_LABELS, load_dataset
from repro.graph.generators import (
    assign_labels,
    barabasi_albert,
    erdos_renyi,
    shuffled_edges,
)
from repro.runtime.backend import DeploymentResult, SerialBackend, SimulatedBackend
from repro.runtime.cluster import ClusterSpec
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.store.remote import FetchCosts
from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue
from repro.types import EdgeUpdate, MatchDelta, Update

RESULTS_PATH = Path(__file__).parent / "results.json"

#: repo-root results file for the current PR's measurements; earlier
#: BENCH_PR*.json files are kept as the trajectory that
#: ``benchmarks/check_trajectory.py`` gates against
BENCH_PATH = Path(__file__).parent.parent / "BENCH_PR10.json"

#: scaled default window size (paper: 100K updates per window)
WINDOW = 100


# -- benchmark graphs ---------------------------------------------------------


def lj_bench() -> AdjacencyGraph:
    """Further-scaled LiveJournal stand-in for full-enumeration benchmarks."""
    return barabasi_albert(400, 4, seed=7)


def lj_small() -> AdjacencyGraph:
    """Smallest LJ stand-in, for the join-based baseline comparisons."""
    return barabasi_albert(250, 3, seed=7)


def gks_bench() -> AdjacencyGraph:
    """Labeled uniform-degree graph for keyword-search workloads."""
    g = erdos_renyi(400, 1400, seed=3)
    assign_labels(g, GKS_LABELS, fraction_labeled=1.0 / 8.0, seed=13)
    return g


def labeled(graph: AdjacencyGraph, num_labels: int = 3, seed: int = 13) -> AdjacencyGraph:
    labels = [chr(ord("a") + i) for i in range(num_labels)]
    assign_labels(graph, labels, fraction_labeled=1.0, seed=seed)
    return graph


# -- engine drivers -----------------------------------------------------------


def timed_static_run(graph, algorithm):
    """Run Tesseract statically; returns (deltas, seconds, metrics, tasks).

    ``tasks`` are the ``(timestamp, EdgeUpdate)`` pairs it mined, every edge
    of ``graph`` at timestamp 1 of ``MultiVersionStore.from_adjacency(graph,
    ts=1)``.
    """
    metrics = Metrics()
    store = MultiVersionStore.from_adjacency(graph, ts=1)
    engine = TesseractEngine(store, algorithm, metrics=metrics)
    tasks = [(1, EdgeUpdate(u, v, added=True)) for u, v in graph.sorted_edges()]
    start = time.perf_counter()
    deltas = [d for ts, update in tasks for d in engine.process_update(ts, update)]
    seconds = time.perf_counter() - start
    return deltas, seconds, metrics, tasks


def collected(measure):
    """Run ``measure()`` with the collector emptied and its heap frozen, so
    neither side of an alternating comparison pays for collecting garbage
    the other left behind."""
    gc.collect()
    gc.freeze()
    try:
        return measure()
    finally:
        gc.unfreeze()


def incremental_setup(
    graph: AdjacencyGraph,
    preload_fraction: float,
    window: int = WINDOW,
    seed: int = 5,
):
    """Preload a fraction of the graph, return (store, pending_edges).

    Mirrors the paper's evolving-graph methodology (section 6.1): a shuffled
    subset of edges is preloaded, the rest arrive as updates.
    """
    edges = shuffled_edges(graph, seed=seed)
    cut = int(len(edges) * preload_fraction)
    preloaded, pending = edges[:cut], edges[cut:]
    base = AdjacencyGraph()
    for v in graph.vertices():
        base.add_vertex(v, label=graph.vertex_label(v))
    for u, v in preloaded:
        base.add_edge(u, v)
    store = MultiVersionStore.from_adjacency(base, ts=1)
    return store, pending


def run_updates(
    store: MultiVersionStore,
    algorithm,
    edge_stream: Sequence[Tuple[Tuple[int, int], bool]],
    window: int = WINDOW,
    timer: Optional[OperationTimer] = None,
):
    """Feed (edge, added) updates through the streaming session; time mining only.

    Returns (deltas, mining_seconds, metrics, tasks) — ``tasks`` are the
    ``(timestamp, EdgeUpdate)`` pairs the session mined, in order.  A
    ``timer`` is attached to the engine's explorer before mining starts.
    """
    metrics = Metrics()
    exec_backend = _TaskLog(store, algorithm, metrics=metrics)
    if timer is not None:
        timer.attach(exec_backend.engine.explorer)
    session = StreamingSession(algorithm, exec_backend, window_size=window, store=store)
    for (u, v), added in edge_stream:
        session.submit(Update.add_edge(u, v) if added else Update.delete_edge(u, v))
    session.ingress.flush()
    start = time.perf_counter()
    deltas = session.run_pending()
    seconds = time.perf_counter() - start
    session.close()  # the caller reads counters, which outlive it
    return deltas, seconds, metrics, exec_backend.tasks


class _TaskLog(SerialBackend):
    """The serial backend, keeping every task it ran for :func:`simulate_cluster`."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tasks: List[Tuple[int, EdgeUpdate]] = []

    def run_tasks(self, tasks):
        self.tasks.extend(tasks)
        return super().run_tasks(tasks)


def simulate_cluster(
    store, algorithm, tasks, spec: ClusterSpec, fetch_units: float, scheduler=None
) -> DeploymentResult:
    """Run ``tasks`` on a simulated cluster in one ``run_tasks`` call.

    One call for the whole stream: no barrier between windows, and each
    machine's cache lives for the run.  A record fetch costs ``fetch_units``
    work units, whatever its size.  ``store`` must still hold every version
    the tasks read (the run's own store, with nothing reclaimed): each task
    reads it at its own timestamp.  Convert the makespan with
    :func:`cluster_seconds`.
    """
    round_trip = fetch_units * SimulatedBackend.seconds_per_work_unit
    backend = SimulatedBackend(
        store,
        algorithm,
        spec,
        fetch_costs=FetchCosts(round_trip=round_trip, per_edge=0.0),
        scheduler=scheduler,
    )
    backend.run_tasks(tasks)
    return backend.last_result


def cluster_seconds(result: DeploymentResult, units_per_second: float) -> float:
    """The makespan in seconds, at a single-threaded run's work units per second."""
    return result.makespan_seconds / SimulatedBackend.seconds_per_work_unit / units_per_second


def additions(edges: Iterable[Tuple[int, int]]):
    return [(e, True) for e in edges]


# -- reporting ---------------------------------------------------------------


def print_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def session_counter_totals(session) -> Dict[str, float]:
    """Deterministic counter totals from a session's registry snapshot.

    Benchmarks report operation counts from here (one source of truth for
    the CLI, the tests, and the suite) rather than poking component
    counters individually.
    """
    return session.collect_registry().counter_totals()


def _merge_json(path: Path, experiment: str, data: Dict) -> None:
    existing: Dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except json.JSONDecodeError:
            existing = {}
    existing[experiment] = data
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")


def record(experiment: str, data: Dict) -> None:
    """Merge one experiment's measurements into both results files.

    ``benchmarks/results.json`` keeps the cumulative history that
    EXPERIMENTS.md summarizes; repo-root ``BENCH_PR10.json`` carries the
    current PR's numbers for the cross-PR trajectory gate.
    """
    _merge_json(RESULTS_PATH, experiment, data)
    _merge_json(BENCH_PATH, experiment, data)


def record_bench(experiment: str, data: Dict) -> None:
    """Merge measurements into the current PR's repo-root bench file only."""
    _merge_json(BENCH_PATH, experiment, data)


def time_best_interleaved(stages: Dict, rounds: int) -> Dict[str, float]:
    """Best-of-``rounds`` seconds per stage, one round of every stage at a
    time.

    The stages are compared as ratios to a ``raw`` floor; a box that
    changes speed between two stages' loops would move the ratios, so every
    round visits all of them.
    """
    best = {name: float("inf") for name in stages}
    for _ in range(rounds):
        for name, fn in stages.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def fmt_seconds(s: Optional[float]) -> str:
    if s is None:
        return "—"
    if s < 1:
        return f"{s * 1000:.0f}ms"
    if s < 120:
        return f"{s:.2f}s"
    return f"{s / 60:.1f}min"


def fmt_rate(r: float) -> str:
    if r >= 1e6:
        return f"{r / 1e6:.2f}M/s"
    if r >= 1e3:
        return f"{r / 1e3:.1f}K/s"
    return f"{r:.0f}/s"

"""Fractal [24] baseline: static, distributed, DFS graph mining.

Fractal enumerates embeddings depth-first "which reduces memory footprint
and subgraph enumeration costs", but "workers coordinate with each other via
an application master, resulting in high network traffic and introducing a
bottleneck on the master" (paper section 6.2.1).

We rebuild it as a real DFS enumerator over static graphs (the same
filter/match programming model, so the identical applications run on it)
plus a distributed cost model: work parallelizes over workers, but every
root-edge task requires a master round trip, and the master serializes those
round trips — the coordination bottleneck Tesseract avoids.

Being a *static* system, mining an evolving graph means full recomputation
after every batch of updates (the paper's Figure 3 comparison).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.api import InducedMode, MiningAlgorithm
from repro.core.metrics import Metrics
from repro.core.stesseract import STesseractEngine
from repro.graph.adjacency import AdjacencyGraph
from repro.types import MatchDelta


@dataclass
class FractalRun:
    """Result of one full static computation."""

    matches: List[MatchDelta]
    wall_seconds: float
    work_units: float
    num_tasks: int
    metrics: Metrics

    def simulated_makespan(
        self,
        num_machines: int,
        workers_per_machine: int = 16,
        master_round_trip: float = 20.0,
        network_factor: float = 0.15,
    ) -> float:
        """Distributed makespan in work units.

        Work divides across workers, but every root-edge task costs a
        serialized master round trip, and workers exchange state in
        proportion to the work they perform ("high network traffic and ...
        a bottleneck on the master", paper section 6.2.1).  The traffic is
        spread over the machines' links and vanishes on a single machine.
        """
        workers = num_machines * workers_per_machine
        parallel = self.work_units / workers
        master_serial = self.num_tasks * master_round_trip
        network = (
            self.work_units
            * network_factor
            * (1.0 - 1.0 / num_machines)
            / num_machines
        )
        return parallel + master_serial + network


class FractalModel:
    """DFS static miner with master-coordination accounting."""

    def __init__(self, algorithm: MiningAlgorithm) -> None:
        self.algorithm = algorithm

    def run(self, graph: AdjacencyGraph) -> FractalRun:
        """Full computation on the entire static graph.

        Vertex-induced algorithms run on the lean static DFS engine;
        edge-induced algorithms (Fractal supports FSM) fall back to the
        generic static enumeration.
        """
        metrics = Metrics()
        start = time.perf_counter()
        if self.algorithm.induced is InducedMode.VERTEX:
            engine = STesseractEngine(self.algorithm, metrics=metrics)
            matches = engine.run(graph)
        else:
            from repro.core.engine import TesseractEngine

            matches = TesseractEngine.run_static(
                graph, self.algorithm, metrics=metrics
            )
        wall = time.perf_counter() - start
        return FractalRun(
            matches=matches,
            wall_seconds=wall,
            work_units=metrics.work_units(),
            num_tasks=graph.num_edges(),
            metrics=metrics,
        )

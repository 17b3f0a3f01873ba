"""The six workloads: what each mines, on which graph, store and backend.

A workload is one cell of app x graph x store x backend.  Its *dataset*
(the full graph) is fixed, the way the paper's datasets are; the run's
``--seed`` draws everything that varies between runs of the paper's
methodology (section 6.1): which half of the edges is preloaded, the order
in which the rest arrive, and which present edges are deleted in between.
Keeping the dataset fixed removes the one input property whose seed-to-seed
variance (hub sizes of a preferential-attachment graph: +-17% wall) would
otherwise drown every other signal on a two-core box.

The four ``clique4-*`` workloads share one dataset *and* one stream per
seed, so they must emit one identical delta listing and identical ``core``
counters: any difference between them is the cost (or a bug) of the store,
backend or telemetry path, never of the input.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.apps.cliques import CliqueMining
from repro.apps.motif_counting import MotifCounting
from repro.core.api import EmptyAlgorithm
from repro.dataflow.aggregation import SumAggregator
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.canonical import motif_of
from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.io import write_edge_list
from repro.runtime.session import StreamingSession
from repro.store.api import make_store
from repro.telemetry import Telemetry
from repro.types import Update

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
OUT = HERE / "out"

#: updates per snapshot window (the harness's scaled 100K)
WINDOW = 100
#: untimed windows before the timed loop (caches fill, lazy set-up ends)
WARMUP_WINDOWS = 5
#: seed of every dataset graph; ``--seed`` never changes the dataset
DATASET_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    #: "clique4" | "motif3" | "empty"
    app: str
    #: ("ba", vertices, edges_per_vertex) or ("er", vertices, edges)
    graph: Tuple[str, int, int]
    store: str = "mv"
    backend: str = "serial"
    workers: Optional[int] = None
    telemetry: bool = False
    #: share of stream updates that delete a currently present edge
    deletions: float = 0.2
    #: timed windows of a nominal 10-second run; 200 puts ten samples beyond
    #: the p95.  A run's work is fixed by (workload, seed, seconds), never by
    #: how fast the box happens to be, so counts and digests repeat exactly.
    timed_windows: int = 200


_CLIQUE_GRAPH = ("ba", 16000, 5)

#: why each cell exists is recorded once, in BENCHMARK.json (``why``) and,
#: at length, in README.md
WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "clique4-mv-serial",
        "clique4",
        _CLIQUE_GRAPH,
    ),
    Workload(
        "motif3-mv-serial",
        "motif3",
        ("er", 24000, 48000),
    ),
    Workload(
        "clique4-net-serial",
        "clique4",
        _CLIQUE_GRAPH,
        store="net",
    ),
    Workload(
        "clique4-sharded-process",
        "clique4",
        _CLIQUE_GRAPH,
        store="sharded",
        backend="process",
        workers=2,
    ),
    Workload(
        "clique4-mv-telemetry",
        "clique4",
        _CLIQUE_GRAPH,
        telemetry=True,
    ),
    Workload(
        "ingest-empty-mv",
        "empty",
        ("ba", 30000, 5),
        deletions=0.3,
        timed_windows=1000,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}

#: workloads whose delta listing and core counters must be identical
CLIQUE4_GROUP = tuple(w.name for w in WORKLOADS if w.app == "clique4")


def make_algorithm(app: str):
    if app == "clique4":
        return CliqueMining(4, min_size=3)
    if app == "motif3":
        return MotifCounting(3, min_size=3)
    return EmptyAlgorithm()


# -- inputs -------------------------------------------------------------------


@dataclass
class Inputs:
    """Everything the program is handed: a preload graph and an update stream."""

    base: AdjacencyGraph
    #: the preloaded edges, as a plain list (the oracle's starting point)
    base_edges: List[Tuple[int, int]]
    #: warm-up windows first, then the timed ones
    stream: List[Update]
    timed_windows: int


def make_inputs(
    workload: Workload, seed: int, seconds: float = 10.0, scale: float = 1.0
) -> Inputs:
    """Dataset (fixed) + preload split and update stream (from ``seed``).

    Half the edges are preloaded; the other half arrive shuffled, and with
    probability ``workload.deletions`` an update instead deletes a uniformly
    chosen present edge (O(1) swap-pop), so every update is valid; the only
    updates sanitisation drops are the rare add and delete of one edge
    inside one window, which cancel.  The stream holds the warm-up windows
    plus ``timed_windows * seconds / 10`` timed ones (fewer if the dataset
    runs out of absent edges first); ``scale`` shrinks the dataset and the
    stream together (the self-check's smoke runs).
    """
    kind, n, m = workload.graph
    n = max(50, int(n * scale))
    if kind == "ba":
        graph = barabasi_albert(n, m, seed=DATASET_SEED)
    else:
        graph = erdos_renyi(n, max(50, int(m * scale)), seed=DATASET_SEED)
    rng = random.Random(seed)
    edges = sorted(graph.edges())
    rng.shuffle(edges)
    half = len(edges) // 2
    present, absent = edges[:half], edges[half:]
    base = AdjacencyGraph()
    for v in graph.vertices():
        base.add_vertex(v)
    for u, v in present:
        base.add_edge(u, v)
    base_edges = list(present)
    timed = max(5, round(workload.timed_windows * scale * seconds / 10.0))
    limit = (WARMUP_WINDOWS + timed) * WINDOW
    deletions = workload.deletions
    stream: List[Update] = []
    rand, randrange = rng.random, rng.randrange
    while absent and len(stream) < limit:
        if present and rand() < deletions:
            i = randrange(len(present))
            present[i], present[-1] = present[-1], present[i]
            stream.append(Update.delete_edge(*present.pop()))
        else:
            edge = absent.pop()
            present.append(edge)
            stream.append(Update.add_edge(*edge))
    del stream[len(stream) - len(stream) % WINDOW :]
    return Inputs(base, base_edges, stream, len(stream) // WINDOW - WARMUP_WINDOWS)


# -- the system under test ----------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return env


class StoreServer:
    """A ``repro serve-store`` subprocess preloaded from an edge-list file."""

    def __init__(self, graph_path: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-store", "--graph", str(graph_path)],
            stdout=subprocess.PIPE,
            env=_child_env(),
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line.startswith("serving "):
            self.stop()
            raise RuntimeError(f"serve-store did not come up: {line!r}")
        self.addr = line.split()[-1]

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def motif_key(match):
    return motif_of(match)


@dataclass
class System:
    """One constructed pipeline: session, its store, sink and (net) server."""

    session: StreamingSession
    store: object
    sink: object
    server: Optional[StoreServer]

    def close(self) -> None:
        try:
            self.session.close()
            self.store.close()
        finally:
            if self.server is not None:
                self.server.stop()


def write_preload(workload: Workload, inputs: Inputs) -> Optional[Path]:
    """The edge-list file a ``net`` workload's server preloads from.

    Preloading server-side is deliberate: bulk-loading over the wire
    (``NetStoreClient._bulk_load`` -> ``put_record``) installs endpoint
    records that do not share ``EdgeInterval`` objects, so a later
    ``delete_edge`` tombstones one endpoint only (see README, findings).
    """
    if workload.store != "net":
        return None
    OUT.mkdir(exist_ok=True)
    path = OUT / f"base-{workload.name}-{os.getpid()}.edges"
    write_edge_list(inputs.base, path)
    return path


def build_system(
    workload: Workload, inputs: Inputs, preload: Optional[Path], probe=None
) -> System:
    """Set-up as a user pays it: server spawn, preload, connect, session.

    ``probe`` (traced runs only) wraps the store and the algorithm in the
    benchmark's timing proxies before the session sees them, and wraps the
    bound methods of the instances the session exposes afterwards.
    """
    server = None
    if preload is not None:
        # Both ends of the loopback connection share one CPU (the child
        # inherits the mask): a round trip is then two context switches.
        # Across this VM's two vCPUs it is two host-scheduled wake-ups, whose
        # latency was seen to vary 3x between phases of the box; in a quiet
        # phase the two placements measure the same throughput.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        server = StoreServer(preload)
    try:
        telemetry = Telemetry() if workload.telemetry else None
        store = make_store(
            workload.store,
            graph=None if server is not None else inputs.base,
            addr=server.addr if server is not None else None,
            telemetry=telemetry,
        )
        algorithm = make_algorithm(workload.app)
        key = motif_key
        if probe is not None:
            store = probe.wrap_store(store)
            algorithm = probe.wrap_algorithm(algorithm)
            key = probe.fold("graph.canonical", motif_key)
        session = StreamingSession(
            algorithm,
            workload.backend,
            window_size=WINDOW,
            num_workers=workload.workers,
            store=store,
            telemetry=telemetry,
            profile=workload.telemetry,
        )
        # Stream.count() raises AggregationError when a REM retracts a match
        # that pre-dates the preload, so the sink is a differential sum of 1s.
        source = session.output_stream()
        ones = SumAggregator(lambda _match: 1)
        if workload.app == "motif3":
            sink = source.group_by(key).agg(ones)
        else:
            sink = source.agg(ones)
        if probe is not None:
            probe.wrap_session(session, source)
        return System(session, store, sink, server)
    except BaseException:
        if server is not None:
            server.stop()
        raise

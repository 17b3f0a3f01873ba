"""The differential harness: every app × store × backend cell against an
oracle that applies each update alone to a plain dict graph.

Each cell mines one seeded :class:`scenarios.Scenario` — adds and deletes
with and without labels and directions, relabels, vertex deletes, a window
size and flush points, a preload path, mid-stream ``reclaim`` and
checkpoint/restore, crashes, a wire-fault schedule for ``net``, and a
dataflow sink — and :func:`scenarios.check` holds it to four things:
after every flush the accumulated NEW − REM is the oracle's match set,
exactly once; the delta stream is byte-identical to the serial ``mv``
cell's; so are the counter totals and the exploration profile; and the
counts agree with each other (every submitted update accepted or dropped,
every queued item acked and run, one restart per crash of the session's
hook).  A failure names the seed and the cell and prints a one-line
replay command.

Here each app and store has a seed of its own, run on every backend:
twenty scenarios, from the first run of twenty seeds that draws every
value of every dimension (:func:`test_tier1_scenarios_vary_every_dimension`).
The static mode mines the preload graphs of the first twenty seeds that
preload one, again one per app and store, on every backend
(:func:`test_static_cell`).
"""

import ast
import functools
import itertools
from collections import Counter
from pathlib import Path

import pytest

from repro.runtime.backend import BACKEND_NAMES
from repro.store.api import STORE_NAMES
from scenarios import (
    APPS,
    FAULT_COUNTS,
    PRELOAD_PATHS,
    SINKS,
    Scenario,
    UnvetoedCliqueMining,
    mine,
    replay,
    replay_static,
    stream_bytes,
)

FIRST_SEED = 0

#: (seed, app, store, backend)
CELLS = [
    (FIRST_SEED + len(APPS) * s + a, app, store, backend)
    for s, store in enumerate(STORE_NAMES)
    for a, app in enumerate(APPS)
    for backend in BACKEND_NAMES
]


@functools.lru_cache(maxsize=None)
def replayed(seed, app, store, backend):
    """A cell's checked run; kept, so that the wire test reads the runs the
    cells made."""
    return replay(seed, app, store, backend)


@pytest.mark.parametrize(
    "seed, app, store, backend", CELLS, ids=["-".join(map(str, c)) for c in CELLS]
)
def test_cell(seed, app, store, backend):
    replayed(seed, app, store, backend)


#: the first seeds whose scenarios preload a graph, one per app and store
_PRELOADING = (s for s in itertools.count(FIRST_SEED) if Scenario.from_seed(s).preload)
STATIC_SEEDS = {(app, store): next(_PRELOADING) for store in STORE_NAMES for app in APPS}
STATIC_CELLS = [
    (STATIC_SEEDS[app, store], app, store, backend)
    for store in STORE_NAMES
    for app in APPS
    for backend in BACKEND_NAMES
]


@pytest.mark.parametrize(
    "seed, app, store, backend",
    STATIC_CELLS,
    ids=["-".join(map(str, c)) for c in STATIC_CELLS],
)
def test_static_cell(seed, app, store, backend):
    """``StreamingSession.run_static`` on the scenario's preload graph emits
    the oracle's match set, each match once, as the serial mv cell does."""
    replay_static(seed, app, store, backend)


def test_static_seeds_draw_labels_and_every_direction():
    """The static cells' graphs carry vertex labels, edge labels and every
    direction, also where the app reads them."""
    drawn = {key: Scenario.from_seed(seed) for key, seed in STATIC_SEEDS.items()}
    assert {d for s in drawn.values() for *_, d in s.preload} == {None, "fwd", "rev", "both"}
    assert all(s.preload_labels for s in drawn.values())
    reads = [s for (app, _), s in drawn.items() if app == "reads-everything"]
    assert any(d in ("fwd", "rev") for s in reads for *_, d in s.preload)
    assert any(label is not None for s in reads for _, _, label, _ in s.preload)


CLIQUE_CELLS = [cell for cell in CELLS if cell[1] == "4-C"]


@pytest.mark.parametrize(
    "seed, app, store, backend",
    CLIQUE_CELLS,
    ids=["-".join(map(str, c)) for c in CLIQUE_CELLS],
)
def test_clique_veto_is_invisible(seed, app, store, backend):
    """4-C rejects a child on its row before it is built; the twin that asks
    ``filter`` about every child emits the same bytes and records the same
    counter totals and profile, since a veto counts as a rejecting call."""
    vetoed = replayed(seed, app, store, backend)
    twin = mine(
        Scenario.from_seed(seed),
        app,
        store,
        backend,
        algorithm=UnvetoedCliqueMining(4, min_size=3),
    )
    assert stream_bytes(twin.deltas) == stream_bytes(vetoed.deltas)
    assert twin.counters == vetoed.counters
    assert twin.profile == vetoed.profile


def test_net_fault_schedules_fire():
    """Every proxied ``net`` cell's client went through its proxy; every
    rule the ``net`` scenarios draw fired in some cell; and the clients
    retried.  A schedule that never fires, or a client that bypasses the
    proxy, would leave the ``net`` cells proving nothing about the wire."""
    fired = Counter()
    for seed, app, store, backend in CELLS:
        schedule = Scenario.from_seed(seed).faults
        if store != "net" or schedule is None:
            continue
        wire = replayed(seed, app, store, backend).wire
        assert wire["frames"] > 0, (seed, backend)
        drawn = set(schedule) & set(FAULT_COUNTS)
        fired.update({rule: wire[FAULT_COUNTS[rule]] for rule in drawn})
        fired["retries"] += wire["retries"]
    assert all(fired[rule] > 0 for rule in FAULT_COUNTS), fired
    assert fired["retries"] > 0, fired


def test_tier1_scenarios_vary_every_dimension():
    """The tier-1 seeds draw every value of every dimension a scenario
    varies, and the ``net`` cells' seeds every kind of wire fault."""
    by_seed = {seed: Scenario.from_seed(seed) for seed, *_ in CELLS}
    drawn = by_seed.values()
    assert {s.window for s in drawn} == {1, 2, 3, 6}
    assert {s.preload_path for s in drawn if s.preload} == set(PRELOAD_PATHS)
    assert {s.sink for s in drawn} == set(SINKS)
    assert {s.gc_enabled for s in drawn} == {True, False}
    assert any(s.reclaims for s in drawn)
    assert any(s.restore_after is not None for s in drawn)
    assert {w for s in drawn for w, _ in s.crashes.crash_points} == {0, 1}
    assert {s.shuffled for s in drawn} == {True, False}
    # (scenario, tasks) of every window: a process cell cuts a window into
    # min(processes, tasks) stride slices, a shuffled serial cell runs its
    # tasks in a drawn order
    windows = [
        (by_seed[seed], len(tasks))
        for seed, app, store, backend in CELLS
        if backend == "serial"
        for tasks in replayed(seed, app, "mv", "serial").windows.values()
    ]
    assert {s.processes for s in drawn} == {2, 3, 5}
    assert max(min(s.processes, n) for s, n in windows) >= 3
    assert any(n < s.processes for s, n in windows)
    assert any(n > s.processes and n % s.processes for s, n in windows)
    assert any(s.shuffled and n >= 3 for s, n in windows)
    net = [by_seed[seed] for seed, _, store, _ in CELLS if store == "net"]
    assert any(s.preload and s.preload_path == "bulk_load" for s in net)
    assert any(s.faults is None for s in net)
    assert {rule for s in net for rule in s.faults or ()} >= set(FAULT_COUNTS)


def test_scenarios_replay_from_their_seed():
    assert Scenario.from_seed(7) == Scenario.from_seed(7)
    assert Scenario.from_seed(7) != Scenario.from_seed(8)


def test_oracle_shares_no_code_with_the_pipeline():
    """``oracles`` imports nothing the explorer, the runtime, the stores,
    the ingress or the wire are built from."""
    tree = ast.parse((Path(__file__).parents[1] / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    banned = {f"repro.{p}" for p in ("core", "runtime", "store", "streaming", "net")}
    assert not {name for name in imported if ".".join(name.split(".")[:2]) in banned}

"""Chaos testing: everything at once, output must still be exact.

Each scenario drives a deployment with a randomized schedule that mixes
additions, deletions, vertex/edge relabels, worker crashes, garbage
collection, and checkpoint/restore — then checks the one invariant that
matters: the accumulated delta stream replays to exactly the brute-force
match set of the final graph, with no duplicates and no phantom
retractions.
"""

import random

import pytest

from repro.apps import CliqueMining, GraphKeywordSearch
from repro.core.engine import TesseractEngine, collect_matches
from repro.runtime.fault import CrashPlan, FaultInjector
from repro.runtime.session import StreamingSession
from repro.store.checkpoint import restore_store, store_to_dict, store_from_dict
from repro.types import Update

from oracles import brute_force_vertex_induced


def random_schedule(rng, n_vertices, steps):
    """A random valid update schedule over ``n_vertices`` vertices."""
    ops = []
    present = set()
    labels = ["red", "green", "blue", None]
    for _ in range(steps):
        roll = rng.random()
        if roll < 0.45 or not present:
            u, v = rng.sample(range(n_vertices), 2)
            key = (min(u, v), max(u, v))
            if key not in present:
                present.add(key)
                ops.append(Update.add_edge(*key))
        elif roll < 0.75:
            key = rng.choice(sorted(present))
            present.discard(key)
            ops.append(Update.delete_edge(*key))
        elif roll < 0.9:
            v = rng.randrange(n_vertices)
            ops.append(Update.set_vertex_label(v, rng.choice(labels[:3])))
        else:
            if present:
                key = rng.choice(sorted(present))
                ops.append(Update.set_edge_label(*key, rng.choice(["s", "w"])))
    return ops


@pytest.mark.parametrize("seed", range(6))
def test_chaos_cliques(seed):
    rng = random.Random(seed)
    alg = lambda: CliqueMining(3, min_size=3)
    # the session injects as worker 0; a set, as a point fires once
    crash_points = tuple({(0, rng.randrange(10)) for _ in range(rng.randint(0, 3))})
    fault = FaultInjector(CrashPlan(crash_points))
    session = StreamingSession(
        alg(),
        window_size=rng.choice([1, 3, 5]),
        fault_injector=fault,
        gc_enabled=rng.choice([True, False]),
    )
    ops = random_schedule(rng, n_vertices=9, steps=60)
    all_deltas = []
    chunk = rng.choice([7, 13, 60])
    for i in range(0, len(ops), chunk):
        session.submit_many(ops[i : i + chunk])
        session.flush()
        if rng.random() < 0.5:
            session.store.reclaim(session.queue.low_watermark())
        if rng.random() < 0.3:
            # checkpoint/restore round-trip mid-run; continue on the copy
            data = store_to_dict(session.store)
            restored = store_from_dict(data)
            all_deltas.extend(session.deltas())
            session = StreamingSession(
                alg(),
                window_size=session.ingress.window_size,
                store=restored,
                fault_injector=fault,
            )
    all_deltas.extend(session.deltas())
    live = collect_matches(all_deltas)
    final = session.snapshot()
    assert live == brute_force_vertex_induced(final, alg())
    assert fault.crash_count == len(crash_points)


@pytest.mark.parametrize("seed", range(3))
def test_chaos_keyword_search(seed):
    rng = random.Random(100 + seed)
    alg = lambda: GraphKeywordSearch(["red", "green"], k=4)
    session = StreamingSession(alg(), window_size=rng.choice([2, 4]))
    ops = random_schedule(rng, n_vertices=8, steps=50)
    session.submit_many(ops)
    session.flush()
    live = collect_matches(session.deltas())
    assert live == brute_force_vertex_induced(session.snapshot(), alg())


def test_chaos_threaded_with_crashes():
    rng = random.Random(7)
    alg = lambda: CliqueMining(3, min_size=3)
    fault = FaultInjector(CrashPlan(((0, 2), (0, 4), (0, 1))))
    session = StreamingSession(
        alg(), "thread", window_size=3, num_workers=4, fault_injector=fault
    )
    ops = random_schedule(rng, n_vertices=10, steps=80)
    session.submit_many(ops)
    session.flush()
    # the thread backend reassembles each window in task order, so the
    # stream replays as it stands
    live = collect_matches(session.deltas())
    assert live == brute_force_vertex_induced(session.snapshot(), alg())
    assert fault.crash_count == 3

#!/usr/bin/env python3
"""Directed motif census on an evolving gene-regulation network.

Feed-forward loops (a→b, b→c, a→c) are the signature motif of
transcriptional regulation networks (Milo et al. 2002 — the paper's
motif-counting citation).  This example grows a synthetic regulatory
network arc by arc, keeps a live census of feed-forward loops vs cyclic
triads, and shows a knockout experiment: removing one regulator's arcs
retracts exactly the loops that depended on it.

Run:  python examples/gene_network.py
"""

import random

from repro.apps.directed import CyclicTriads, FeedForwardLoops
from repro.runtime.session import StreamingSession
from repro.types import Update

rng = random.Random(21)
NUM_GENES = 60

# Synthetic regulatory arcs: a few master regulators with many targets,
# plus random downstream wiring.
arcs = set()
masters = list(range(5))
for master in masters:
    for _ in range(12):
        target = rng.randrange(5, NUM_GENES)
        arcs.add((master, target))
for _ in range(120):
    a, b = rng.sample(range(NUM_GENES), 2)
    arcs.add((a, b))
arcs = sorted(arcs)
rng.shuffle(arcs)

ffl_session = StreamingSession(FeedForwardLoops(), window_size=20)
ffl_count = ffl_session.output_stream().count()
cycle_session = StreamingSession(CyclicTriads(), window_size=20)
cycle_count = cycle_session.output_stream().count()


def arc_update(a, b):
    # direction is expressed relative to (src, dst): "fwd" = src -> dst
    return Update.add_edge(a, b, direction="fwd")


seen = set()
for a, b in arcs:
    key = (min(a, b), max(a, b))
    if key in seen:
        continue  # one orientation per gene pair in this toy network
    seen.add(key)
    ffl_session.submit(arc_update(a, b))
    cycle_session.submit(arc_update(a, b))
ffl_session.flush()
cycle_session.flush()

print(f"network: {len(seen)} regulatory arcs over {NUM_GENES} genes")
print(f"feed-forward loops: {ffl_count.value()}")
print(f"cyclic triads:      {cycle_count.value()}")
assert ffl_count.value() > 0

# Knockout: delete every outgoing arc of master regulator 0.
knocked = [
    (u, v) for u, v in seen if 0 in (u, v)
]
before = ffl_count.value()
for u, v in knocked:
    ffl_session.submit(Update.delete_edge(u, v))
ffl_session.flush()
print(f"\nknockout of gene 0 removed {before - ffl_count.value()} "
      f"feed-forward loops ({ffl_count.value()} remain)")
rems = [d for d in ffl_session.deltas() if d.is_rem()]
assert all(0 in d.subgraph.vertices for d in rems)
print("every retracted loop involved the knocked-out gene — exact lineage.")

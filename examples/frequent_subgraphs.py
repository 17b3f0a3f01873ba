#!/usr/bin/env python3
"""Frequent subgraph mining (FSM) over an evolving protein-style graph.

FSM is the paper's most involved application (section 3.3): edge-induced
subgraphs, minimum-image-based (MNI) support, and a feedback loop — when a
pattern's support crosses the threshold, its previously discarded matches
are re-mined from the current snapshot and emitted; when it drops below,
a lost-support event fires without re-enumeration.

The example labels vertices like residue types and streams in interaction
edges; watch patterns cross the support threshold in both directions.

Run:  python examples/frequent_subgraphs.py
"""

import random

from repro.apps import FrequentSubgraphMining, FSMPipeline
from repro.runtime.session import StreamingSession
from repro.types import Update

THRESHOLD = 4
rng = random.Random(7)

session = StreamingSession(FrequentSubgraphMining(k=3), window_size=6)
fsm = FSMPipeline(
    threshold=THRESHOLD,
    snapshot_provider=lambda ts: session.store.as_adjacency(ts),
)

# 24 "residues" of three types.
for v in range(24):
    session.submit(Update.add_vertex(v, label=rng.choice("HEC")))

# Interaction edges stream in.
edges = set()
while len(edges) < 40:
    u, v = rng.sample(range(24), 2)
    edges.add((min(u, v), max(u, v)))
edge_list = sorted(edges)
rng.shuffle(edge_list)

for u, v in edge_list:
    session.submit(Update.add_edge(u, v))
fsm.consume(session.flush())

print(f"threshold: MNI support >= {THRESHOLD}")
print(f"frequent patterns after {len(edge_list)} interactions:")
for form, support in sorted(
    fsm.frequent_patterns().items(), key=lambda kv: -kv[1]
):
    print(f"  support {support:>2}  {form}")

print("\nthreshold crossings observed:")
for event in fsm.events:
    print(f"  ts={event.timestamp:>3} {event.kind:<16} support={event.support}  {event.pattern}")

# Remove a batch of edges and watch support drain away.
for u, v in edge_list[::2]:
    session.submit(Update.delete_edge(u, v))
fsm.consume(session.flush())

lost = [e for e in fsm.events if e.kind == "lost_support"]
print(f"\nafter deleting half the interactions: {len(fsm.frequent_patterns())} "
      f"patterns still frequent, {len(lost)} lost support")
assert fsm.rematerializations >= 1

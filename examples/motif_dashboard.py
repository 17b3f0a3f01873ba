#!/usr/bin/env python3
"""A live motif dashboard over a growing social network.

Motif counting is the paper's flagship aggregation example: every connected
subgraph up to size k is a match, and the output stream is folded with

    stream.GROUPBY(MOTIF).COUNT()

This example grows a preferential-attachment network in batches and prints
the evolving motif census after each batch — triangles vs wedges is the
global clustering structure of the network.

Run:  python examples/motif_dashboard.py
"""

from repro.apps import MotifCounting
from repro.dataflow import MOTIF
from repro.graph.generators import barabasi_albert, shuffled_edges
from repro.runtime.session import StreamingSession
from repro.types import Update

K = 3
NAMES = {2: "wedge  (2 edges)", 3: "triangle (3 edges)"}

graph = barabasi_albert(150, 3, seed=1)
edges = shuffled_edges(graph, seed=2)

session = StreamingSession(MotifCounting(K, min_size=3), window_size=20)
census = session.output_stream().group_by(MOTIF).count()

batch_size = len(edges) // 4
for batch_no in range(4):
    batch = edges[batch_no * batch_size : (batch_no + 1) * batch_size]
    session.submit_many(Update.add_edge(u, v) for u, v in batch)
    session.flush()
    counts = {
        NAMES.get(motif.num_edges(), str(motif)): n
        for motif, n in census.state().items()
    }
    wedges = counts.get(NAMES[2], 0)
    triangles = counts.get(NAMES[3], 0)
    closure = 3 * triangles / (3 * triangles + wedges) if triangles else 0.0
    print(f"after batch {batch_no + 1} ({(batch_no + 1) * batch_size} edges):")
    for name, n in sorted(counts.items()):
        print(f"  {name:<20} {n:>8}")
    print(f"  global clustering   {closure:>8.3f}")

# Cross-check the final census against a from-scratch static run.
from repro.apps import count_motifs
from repro.core.engine import TesseractEngine

final_graph = session.snapshot()
static = count_motifs(TesseractEngine.run_static(final_graph, MotifCounting(K, min_size=3)))
assert static == census.state()
print("incremental census matches full recomputation.")

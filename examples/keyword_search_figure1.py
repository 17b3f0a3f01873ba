#!/usr/bin/env python3
"""Reproduce the paper's Figure 1: graph keyword search on an evolving graph.

Given the labels {orange, green, blue}, find all *minimal* connected
subgraphs containing exactly one vertex of each label, and keep the result
live as the graph changes: +(1,2), +(2,5), -(6,7).

Run:  python examples/keyword_search_figure1.py
"""

from repro.apps import GraphKeywordSearch
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.datasets import figure1_graph, figure1_updates
from repro.runtime.session import StreamingSession

LABELS = ("orange", "green", "blue")


def show(title, match_sets):
    print(f"{title}:")
    for vertices in sorted(match_sets):
        print(f"  {vertices}")


graph = figure1_graph()
print("input graph (BEFORE):")
for u, v in graph.sorted_edges():
    print(f"  {u} -- {v}")
for v in sorted(graph.vertices()):
    label = graph.vertex_label(v)
    if label:
        print(f"  vertex {v}: {label}")

algorithm = GraphKeywordSearch(LABELS, k=5)

# Matches before any update (static run).
before = collect_matches(TesseractEngine.run_static(graph, algorithm))
show("\nmatches BEFORE", {tuple(sorted(vs)) for vs, _ in before})

# Apply the three updates of Figure 1 through the full pipeline.
session = StreamingSession(algorithm, window_size=3, initial_graph=graph)
session.submit_many(figure1_updates())
session.flush()

print("\nchanges in the match set:")
for delta in session.deltas():
    vertices = tuple(sorted(delta.subgraph.vertices))
    print(f"  {delta.status.value:>3} {vertices}")

after = collect_matches(TesseractEngine.run_static(session.snapshot(), algorithm))
show("\nmatches AFTER", {tuple(sorted(vs)) for vs, _ in after})

expected_rem = {(1, 2, 3, 4), (2, 6, 7, 8)}
expected_new = {(1, 2, 3), (1, 2, 5, 7), (2, 5, 6, 7, 8)}
rems = {tuple(sorted(d.subgraph.vertices)) for d in session.deltas() if d.is_rem()}
news = {tuple(sorted(d.subgraph.vertices)) for d in session.deltas() if d.is_new()}
assert rems == expected_rem and news == expected_new
print("\nFigure 1 reproduced exactly.")

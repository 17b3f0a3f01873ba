"""k-clique enumeration (k-C) and labeled cliques (k-CL).

Paper Algorithm 1 (clique_mining): ``filter`` keeps subgraphs that are
complete — a clique with n vertices has exactly n(n-1)/2 edges — up to the
maximum size, and ``match`` accepts every filtered subgraph.  The filter
checks cliques of *any* size up to the bound, so patterns of varying sizes
are mined in one execution (this is what a subgraph-query system like
BigJoin cannot express without one query per size).

k-CL (section 6.1) extends k-C with the requirement that all vertices carry
distinct labels; the label check prunes during exploration, which is the
source of Tesseract's 6.5x win over Delta-BigJoin on 4-CL (section 6.3).
"""

from __future__ import annotations

from repro.core.api import MiningAlgorithm
from repro.graph.subgraph import SubgraphView


class CliqueMining(MiningAlgorithm):
    """k-C: enumerate all cliques with between ``min_size`` and ``k`` vertices."""

    def __init__(self, k: int = 4, min_size: int = 3) -> None:
        if k < 2:
            raise ValueError("clique size bound must be at least 2")
        self.max_size = k
        self.min_size = min_size

    @property
    def name(self) -> str:
        return f"{self.max_size}-C"

    def filter(self, s: SubgraphView) -> bool:
        n = len(s)
        return n <= self.max_size and s.num_edges() == n * (n - 1) // 2

    def match(self, s: SubgraphView) -> bool:
        return len(s) >= self.min_size

    def required_row(self, n: int) -> int:
        # a complete subgraph stays complete only with a vertex adjacent to all
        return (1 << n) - 1


class LabeledCliqueMining(CliqueMining):
    """k-CL: cliques whose vertices all carry distinct labels.

    The distinctness check is anti-monotone (a duplicate label never goes
    away when expanding), so it belongs in ``filter`` where it prunes the
    search space immediately — the paper's argument for the general
    programming model beating join-based systems on selective patterns.
    Unlabeled vertices never qualify, since their label is indistinct.
    """

    @property
    def name(self) -> str:
        return f"{self.max_size}-CL"

    def filter(self, s: SubgraphView) -> bool:
        if not super().filter(s):
            return False
        labels = s.labels()
        if any(label is None for label in labels):
            return False
        return len(set(labels)) == len(labels)

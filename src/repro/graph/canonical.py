"""Canonical labeling of small (labeled) graphs — the motif library.

Tesseract implements its own optimized motif library to identify motifs
(paper section 5.6; the MOTIF helper of Table 2).  Every match is isomorphic
to a single fixed subgraph called a *motif*; the canonical form computed here
is the identity of that motif.

The algorithm refines vertices into cells by an isomorphism-invariant
signature (label, degree, sorted neighbor degrees), then searches only the
cell-preserving permutations for the lexicographically smallest adjacency
encoding.  Because the signature is invariant under isomorphism, two graphs
are isomorphic iff their canonical forms are equal.  This is exact and fast
for the <= 6-vertex subgraphs mining algorithms produce; it is not meant for
large graphs (the paper uses bliss [35] as an alternative there).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.types import Label, MatchSubgraph, slot_edges

#: Slot-level edge within a small graph: (i, j) with i < j.
SlotEdge = Tuple[int, int]


@dataclass(frozen=True)
class CanonicalForm:
    """The canonical identity of a small labeled graph.

    ``edges`` are slot pairs after canonical relabeling, sorted; ``labels``
    are the vertex labels in canonical slot order; ``edge_labels`` (when
    the graph is edge-labeled) pairs each canonical edge with its label.
    Two graphs are isomorphic (respecting all labels) iff their canonical
    forms compare equal.
    """

    num_vertices: int
    edges: Tuple[SlotEdge, ...]
    labels: Tuple[Label, ...]
    edge_labels: Tuple[Tuple[SlotEdge, Label], ...] = ()

    def __hash__(self) -> int:
        """The hash of the four fields, computed once: a GROUPBY(MOTIF)
        hashes its key twice per record.  A string label hashes differently
        in another process, so the cached value is not pickled."""
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = self.__dict__["_hash"] = hash(
                (self.num_vertices, self.edges, self.labels, self.edge_labels)
            )
        return cached

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def num_edges(self) -> int:
        return len(self.edges)

    def degree_sequence(self) -> Tuple[int, ...]:
        """Sorted vertex degrees — a cheap isomorphism invariant."""
        degs = [0] * self.num_vertices
        for i, j in self.edges:
            degs[i] += 1
            degs[j] += 1
        return tuple(sorted(degs))

    def __str__(self) -> str:
        label_part = ""
        if any(x is not None for x in self.labels):
            label_part = f" labels={list(self.labels)}"
        return f"Motif(n={self.num_vertices}, edges={list(self.edges)}{label_part})"


def _signature(
    n: int,
    adj: Sequence[FrozenSet[int]],
    labels: Sequence[Label],
    edge_labels: Optional[Dict[SlotEdge, Label]] = None,
) -> List[Tuple]:
    """Isomorphism-invariant per-vertex signature used to split cells."""
    degrees = [len(adj[v]) for v in range(n)]
    sigs = []
    for v in range(n):
        nbr_degs = tuple(sorted(degrees[u] for u in adj[v]))
        nbr_labels = tuple(sorted(str(labels[u]) for u in adj[v]))
        if edge_labels:
            incident = tuple(
                sorted(
                    str(edge_labels.get((v, u) if v < u else (u, v)))
                    for u in adj[v]
                )
            )
        else:
            incident = ()
        sigs.append((str(labels[v]), degrees[v], nbr_degs, nbr_labels, incident))
    return sigs


def _cell_preserving_permutations(sigs: List[Tuple]) -> Iterable[Tuple[int, ...]]:
    """Yield permutations mapping old slot -> new slot, respecting cells.

    Vertices are grouped by signature; cells are ordered by signature; a
    permutation assigns each cell a contiguous block of new slots and
    permutes freely within the cell.
    """
    cells: Dict[Tuple, List[int]] = {}
    for v, sig in enumerate(sigs):
        cells.setdefault(sig, []).append(v)
    ordered = [cells[sig] for sig in sorted(cells)]
    offsets = []
    pos = 0
    for cell in ordered:
        offsets.append(pos)
        pos += len(cell)
    for arrangement in itertools.product(
        *(itertools.permutations(cell) for cell in ordered)
    ):
        perm = [0] * len(sigs)
        for cell_idx, cell_order in enumerate(arrangement):
            base = offsets[cell_idx]
            for k, old in enumerate(cell_order):
                perm[old] = base + k
        yield tuple(perm)


@lru_cache(maxsize=65536)
def _canonical_cached(
    n: int,
    edge_tuple: Tuple[SlotEdge, ...],
    labels: Tuple[Label, ...],
    edge_label_tuple: Tuple[Tuple[SlotEdge, Label], ...] = (),
) -> Tuple[CanonicalForm, Tuple[int, ...]]:
    adj: List[set] = [set() for _ in range(n)]
    for i, j in edge_tuple:
        adj[i].add(j)
        adj[j].add(i)
    frozen_adj = [frozenset(s) for s in adj]
    edge_label_map: Dict[SlotEdge, Label] = dict(edge_label_tuple)
    sigs = _signature(n, frozen_adj, labels, edge_label_map or None)
    best_key = None
    best_form: Optional[CanonicalForm] = None
    best_perm: Optional[Tuple[int, ...]] = None
    for perm in _cell_preserving_permutations(sigs):
        edges = tuple(
            sorted(
                (perm[i], perm[j]) if perm[i] < perm[j] else (perm[j], perm[i])
                for i, j in edge_tuple
            )
        )
        new_labels = [None] * n
        for old, new in enumerate(perm):
            new_labels[new] = labels[old]
        if edge_label_map:
            mapped_edge_labels = tuple(
                sorted(
                    (
                        (perm[i], perm[j]) if perm[i] < perm[j] else (perm[j], perm[i]),
                        edge_label_map.get((i, j)),
                    )
                    for i, j in edge_tuple
                )
            )
        else:
            mapped_edge_labels = ()
        key = (
            edges,
            tuple(str(x) for x in new_labels),
            tuple((e, str(x)) for e, x in mapped_edge_labels),
        )
        if best_key is None or key < best_key:
            best_key = key
            best_form = CanonicalForm(n, edges, tuple(new_labels), mapped_edge_labels)
            best_perm = perm
    assert best_form is not None and best_perm is not None
    return best_form, best_perm


def canonical_form_with_mapping(
    num_vertices: int,
    edges: Iterable[SlotEdge],
    labels: Optional[Sequence[Label]] = None,
    edge_labels: Optional[Dict[SlotEdge, Label]] = None,
) -> Tuple[CanonicalForm, Tuple[int, ...]]:
    """Canonical form plus the permutation mapping input slots to canonical slots.

    ``edges`` use vertex slots ``0..num_vertices-1``; ``labels`` (optional)
    give the label of each slot; ``edge_labels`` (optional) maps slot edges
    to their labels and participates in the canonicalization (and hence in
    the returned mapping).  ``mapping[i]`` is the canonical slot of input
    slot ``i``.  Needed by minimum-image-based support (FSM): each match
    vertex is attributed to the canonical slot it occupies.
    """
    if num_vertices < 0:
        raise ValueError("num_vertices must be non-negative")
    label_tuple: Tuple[Label, ...] = (
        tuple(labels) if labels is not None else (None,) * num_vertices
    )
    if len(label_tuple) != num_vertices:
        raise ValueError("labels must align with num_vertices")
    # a set: (u, v) and (v, u), or one edge listed twice, are one edge
    norm = tuple(sorted({(i, j) if i < j else (j, i) for i, j in edges}))
    for i, j in norm:
        if i == j or not (0 <= i < num_vertices and 0 <= j < num_vertices):
            raise ValueError(f"invalid slot edge ({i}, {j})")
    if edge_labels:
        norm_edge_labels = tuple(
            sorted(
                ((i, j) if i < j else (j, i), label)
                for (i, j), label in edge_labels.items()
            )
        )
        known = set(norm)
        for (i, j), _label in norm_edge_labels:
            if (i, j) not in known:
                raise ValueError(f"edge label on missing edge ({i}, {j})")
    else:
        norm_edge_labels = ()
    return _canonical_cached(num_vertices, norm, label_tuple, norm_edge_labels)


def canonical_form(
    num_vertices: int,
    edges: Iterable[SlotEdge],
    labels: Optional[Sequence[Label]] = None,
    edge_labels: Optional[Dict[SlotEdge, Label]] = None,
) -> CanonicalForm:
    """Canonical form of a small graph given as slot edges.

    Arguments as for :func:`canonical_form_with_mapping`; pass neither
    ``labels`` nor ``edge_labels`` to identify the unlabeled motif.
    """
    return canonical_form_with_mapping(num_vertices, edges, labels, edge_labels)[0]


@lru_cache(maxsize=8192)
def automorphism_orbits(form: CanonicalForm) -> Tuple[int, ...]:
    """Orbit id per canonical slot under the form's automorphism group.

    Slots in one orbit are interchangeable; minimum-image support must pool
    their vertex images (a triangle has a single orbit, so every match
    vertex is an image of every pattern vertex).
    """
    n = form.num_vertices
    adj: List[set] = [set() for _ in range(n)]
    for i, j in form.edges:
        adj[i].add(j)
        adj[j].add(i)
    frozen_adj = [frozenset(s) for s in adj]
    edge_label_map = dict(form.edge_labels)
    sigs = _signature(n, frozen_adj, form.labels, edge_label_map or None)
    edge_set = set(form.edges)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    def _mapped(i: int, j: int) -> Tuple[int, int]:
        return (perm[i], perm[j]) if perm[i] < perm[j] else (perm[j], perm[i])

    for perm in _cell_preserving_permutations(sigs):
        structure_ok = all(_mapped(i, j) in edge_set for i, j in form.edges)
        labels_ok = all(form.labels[v] == form.labels[perm[v]] for v in range(n))
        edge_labels_ok = all(
            edge_label_map.get(_mapped(i, j)) == label
            for (i, j), label in form.edge_labels
        )
        if structure_ok and labels_ok and edge_labels_ok:
            for v in range(n):
                union(v, perm[v])
    roots = {}
    orbits = []
    for v in range(n):
        r = find(v)
        if r not in roots:
            roots[r] = len(roots)
        orbits.append(roots[r])
    return tuple(orbits)


#: bound on the distinct unlabeled shapes :func:`motif_of` remembers
SHAPE_TABLE_SIZE = 4096

#: one instance per distinct form handed out by :func:`motif_of`: matches of
#: one motif key a GROUPBY by the same object, so its dict lookup hits on
#: identity; weak, so a form no table or state holds is let go
_INTERNED: "weakref.WeakValueDictionary[CanonicalForm, CanonicalForm]" = (
    weakref.WeakValueDictionary()
)


@lru_cache(maxsize=SHAPE_TABLE_SIZE)
def _triangle_form(n: int, mask: int) -> CanonicalForm:
    """Unlabeled form of the ``n``-slot graph whose packed lower triangle
    (:func:`~repro.types.slot_mask`) is ``mask``."""
    form = canonical_form(n, slot_edges(mask))
    return _INTERNED.setdefault(form, form)


def slot_edge_labels(
    match: MatchSubgraph, edges: Sequence[SlotEdge]
) -> Dict[SlotEdge, Label]:
    """``match.edge_labels`` keyed by slot edge; ``edges`` is
    :func:`~repro.types.slot_edges` of ``match.mask``."""
    verts = match.vertices
    slot_of = {}
    for j, i in edges:
        u, v = verts[j], verts[i]
        slot_of[(u, v) if u <= v else (v, u)] = (j, i)
    labels = {}
    for key, label in match.edge_labels:
        if key not in slot_of:
            raise ValueError(f"edge label on missing edge {key}")
        labels[slot_of[key]] = label
    return labels


def motif_of(
    match: MatchSubgraph,
    with_labels: bool = False,
    with_edge_labels: bool = False,
) -> CanonicalForm:
    """The MOTIF helper (Table 2): canonical form of an emitted match.

    Without labels the form depends on the shape alone, so it is looked up
    by ``(n, match.mask)``, the match's own packed triangle: the canonical
    search runs once per shape, not once per match, and every match of one
    motif gets the same form instance.  With labels the slot edges come
    from the mask too, and the labelled form is searched for.
    """
    n = len(match.vertices)
    if not (with_labels or with_edge_labels):
        return _triangle_form(n, match.mask)
    edges = slot_edges(match.mask)
    labels = match.vertex_labels if with_labels and match.vertex_labels else None
    edge_labels = None
    if with_edge_labels and match.edge_labels:
        edge_labels = slot_edge_labels(match, edges)
    return canonical_form(n, edges, labels, edge_labels)


def is_isomorphic(
    n1: int,
    edges1: Iterable[SlotEdge],
    n2: int,
    edges2: Iterable[SlotEdge],
    labels1: Optional[Sequence[Label]] = None,
    labels2: Optional[Sequence[Label]] = None,
) -> bool:
    """Exact (label-respecting) isomorphism test for small graphs."""
    if n1 != n2:
        return False
    return canonical_form(n1, edges1, labels1) == canonical_form(n2, edges2, labels2)


def connected_motifs(k: int) -> List[CanonicalForm]:
    """All connected unlabeled motifs on exactly ``k`` vertices.

    For k=4 this returns the six 4-motifs of the paper's Figure 4.
    """
    if k <= 0:
        return []
    if k == 1:
        return [canonical_form(1, [])]
    possible = list(itertools.combinations(range(k), 2))
    seen = {}
    # A connected graph on k vertices needs at least k-1 edges.
    for m in range(k - 1, len(possible) + 1):
        for subset in itertools.combinations(possible, m):
            form = canonical_form(k, subset)
            if form in seen:
                continue
            if _edges_connected(k, subset):
                seen[form] = True
    return sorted(
        seen,
        key=lambda f: (f.num_edges(), f.degree_sequence(), f.edges),
    )


def _edges_connected(k: int, edges: Sequence[SlotEdge]) -> bool:
    adj: List[List[int]] = [[] for _ in range(k)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == k

"""Duplicate elimination: the CAN_EXPAND rules (paper section 4.4, Algorithm 3).

Tesseract avoids duplicate exploration with three mechanisms:

1. **Update canonical order** (section 4.4.1) — exploration starts from the
   updated edge (rule 1) and a vertex may only be appended if, ignoring the
   two update endpoints, no vertex added after its first anchor has a larger
   id (rule 2).  This admits exactly one construction order per subgraph.
2. **Same-snapshot edge ordering** (section 4.4.3) — within a window, a
   strict total order on edges (we use the normalized ``(u, v)`` tuple)
   ensures a match overlapping several same-window updates is found only
   from the lowest one: expansions traversing a lower same-window edge are
   rejected.
3. **Multiversioned snapshots** (section 4.4.2) — handled by the store: a
   worker exploring window ``ts`` cannot see future edges at all.

The functions here operate on candidate adjacency *bitmasks* prepared by
the explorer from the fetched vertex records: ``pre_bits``/``post_bits``
mark which subgraph slots the candidate neighbors in the pre-/post-window
snapshot.  An edge updated in this window is exactly one where the two
masks disagree.

For vertex-induced subgraphs the same-window rejection is applied per
expansion *vertex* exactly as in Algorithm 3 (a vertex-induced subgraph
necessarily contains every window edge among its vertices).  For
edge-induced subgraphs it must instead be applied per *chosen edge*: a
candidate edge set containing a lower same-window edge is found from that
edge's own exploration, but edge sets that merely *touch* such an edge
without including it are still rooted here.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.types import EdgeKey, VertexId, edge_key

#: CAN_EXPAND outcomes, so the profiler can attribute rejections to the
#: rule that caused them without a second evaluation pass.
ALLOWED = 0
PRUNED_SAME_WINDOW = 1  # section 4.4.3: lower same-window edge traversal
PRUNED_RULE2 = 2  # section 4.4.1: update canonical order violated


def vertex_expansion_reason(
    verts: List[VertexId],
    start_key: EdgeKey,
    v: VertexId,
    pre_bits: int,
    post_bits: int,
) -> int:
    """CAN_EXPAND for vertex-induced mode (Algorithm 3), with a reason.

    Returns :data:`ALLOWED` when expanding ``verts`` with ``v`` is allowed,
    otherwise the rule that rejected the expansion.
    """
    # Algorithm 3 lines 1-2: reject traversal of a lower same-window edge.
    # An edge differs between the pre- and post-window snapshots exactly
    # when it was updated in this window.
    diff = pre_bits ^ post_bits
    while diff:
        low = diff & -diff
        u = verts[low.bit_length() - 1]
        if edge_key(v, u) < start_key:
            return PRUNED_SAME_WINDOW
        diff ^= low
    if not rule2_ok(verts, pre_bits | post_bits, v):
        return PRUNED_RULE2
    return ALLOWED


def edge_expansion_pool_ex(
    verts: List[VertexId],
    start_key: EdgeKey,
    v: VertexId,
    pre_bits: int,
    post_bits: int,
) -> Tuple[Optional[List[Tuple[int, bool, bool]]], int]:
    """CAN_EXPAND for edge-induced mode, with same-window exclusion count.

    Returns ``(pool, excluded)`` where ``pool`` is the connecting edges
    available for subset selection as ``(slot, alive_pre, alive_post)``
    triples — lower same-window edges are excluded from the pool rather
    than rejecting the vertex — or ``None`` if rule 2 rejects the vertex
    outright, and ``excluded`` counts the same-window edges removed from
    the pool (0 when ``pool`` is ``None``).
    """
    union_bits = pre_bits | post_bits
    if not rule2_ok(verts, union_bits, v):
        return None, 0
    pool: List[Tuple[int, bool, bool]] = []
    excluded = 0
    bits = union_bits
    while bits:
        low = bits & -bits
        i = low.bit_length() - 1
        bits ^= low
        alive_pre = bool(pre_bits >> i & 1)
        alive_post = bool(post_bits >> i & 1)
        if alive_pre != alive_post and edge_key(v, verts[i]) < start_key:
            excluded += 1  # found from the lower edge's own exploration
            continue
        pool.append((i, alive_pre, alive_post))
    return pool, excluded


def rule2_ok(verts: List[VertexId], union_bits: int, v: VertexId) -> bool:
    """Update canonicality rule 2 (Algorithm 3 lines 3-7).

    ``found`` locates the first subgraph vertex adjacent to ``v`` (the two
    update endpoints count as one combined position); after that anchor,
    every subgraph vertex must have a smaller id than ``v``.
    """
    found = bool(union_bits & 0b11)
    for idx in range(2, len(verts)):
        u = verts[idx]
        if not found and (union_bits >> idx) & 1:
            found = True
        elif found and u > v:
            return False
    return True

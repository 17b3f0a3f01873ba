"""Fixed-size bitset adjacency matrix for exploration subgraphs.

The paper (section 5.6) stores the edges connecting vertices of a candidate
subgraph in a bitset representing the subgraph's adjacency matrix, so that
edge counting, degree computation, expansion, and backtracking are cheap
bitwise operations.  Python integers are arbitrary-precision bitsets, which
makes this representation natural: row ``i`` of the matrix is an int whose
bit ``j`` is set iff vertices ``i`` and ``j`` are adjacent in the subgraph.

Only the lower triangle is stored: slot ``i`` keeps the bits ``j < i``, which
are exactly the bits EXPLORE hands to :meth:`BitMatrix.append_row`.  Expanding
and backtracking therefore never touch an earlier row; the symmetric rows
are mirrored on demand by the queries that need them, and those run only on
subgraphs that survived ``filter``.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple


class BitMatrix:
    """A small symmetric adjacency matrix over positional vertex slots.

    Slots are positions in the exploration order (0, 1, 2, ...), not graph
    vertex ids.  The matrix supports O(1) row append/pop, which is exactly
    the expand/backtrack pattern of the EXPLORE algorithm.  The edge count
    is kept as a running total, so ``num_edges`` (what a clique ``filter``
    asks of every candidate) is a field read.
    """

    __slots__ = ("_rows", "_num_edges")

    def __init__(self, rows: List[int] | None = None) -> None:
        """Build from full symmetric ``rows`` (bit ``j`` of ``rows[i]``)."""
        self._rows = [r & ((1 << i) - 1) for i, r in enumerate(rows or ())]
        self._num_edges = sum(r.bit_count() for r in self._rows)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterator[Tuple[int, int]]) -> "BitMatrix":
        """Build an ``n``-slot matrix from (slot, slot) edge pairs."""
        m = cls([0] * n)
        for i, j in edges:
            m.set_edge(i, j)
        return m

    def copy(self) -> "BitMatrix":
        return BitMatrix(self._rows)

    # -- size --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    # -- expansion / backtracking ------------------------------------------

    def reset_root(self, edge: bool) -> None:
        """Become the two-slot root: slots 0 and 1, adjacent iff ``edge``.

        Whatever rows the matrix held are dropped, so an engine that keeps
        one matrix for its whole life starts every update from here — also
        after an exception left rows of an abandoned search tree behind.
        """
        bit = 1 if edge else 0
        self._rows = [0, bit]
        self._num_edges = bit

    def append_row(self, neighbor_bits: int) -> None:
        """Add a new slot adjacent to the slots set in ``neighbor_bits``.

        ``neighbor_bits`` may only reference existing slots.  This is the
        EXPAND step: the new vertex's connections to the current subgraph.
        """
        rows = self._rows
        if neighbor_bits >> len(rows):
            raise ValueError("neighbor_bits references slots beyond the matrix")
        rows.append(neighbor_bits)
        self._num_edges += neighbor_bits.bit_count()

    def pop_row(self) -> None:
        """Remove the most recently appended slot (the backtrack step)."""
        if not self._rows:
            raise IndexError("pop from empty BitMatrix")
        self._num_edges -= self._rows.pop().bit_count()

    # -- edge accessors ------------------------------------------------------

    def set_edge(self, i: int, j: int) -> None:
        """Connect slots ``i`` and ``j`` (symmetric; self-loops rejected)."""
        if i == j:
            raise ValueError("self-loops are not representable")
        if not self.has_edge(i, j):
            self._rows[max(i, j)] |= 1 << min(i, j)
            self._num_edges += 1

    def clear_edge(self, i: int, j: int) -> None:
        if self.has_edge(i, j):
            self._rows[max(i, j)] &= ~(1 << min(i, j))
            self._num_edges -= 1

    def has_edge(self, i: int, j: int) -> bool:
        self._check(i)
        self._check(j)
        return bool(self._rows[max(i, j)] >> min(i, j) & 1)

    def row(self, i: int) -> int:
        """The full symmetric row of slot ``i``."""
        self._check(i)
        rows = self._rows
        bits = rows[i]
        for k in range(i + 1, len(rows)):
            if rows[k] >> i & 1:
                bits |= 1 << k
        return bits

    def lower_rows(self) -> Iterator[int]:
        """The stored rows in slot order: each bit ``j`` of row ``i`` is edge (j, i)."""
        return iter(self._rows)

    def _check(self, i: int) -> None:
        if not 0 <= i < len(self._rows):
            raise IndexError(f"slot {i} out of range for {len(self._rows)} slots")

    def _symmetric_rows(self) -> List[int]:
        """Every full row at once: the lower triangle mirrored upwards."""
        full = list(self._rows)
        for i, bits in enumerate(self._rows):
            bit = 1 << i
            while bits:
                low = bits & -bits
                full[low.bit_length() - 1] |= bit
                bits ^= low
        return full

    # -- bulk queries (bitwise, per the paper's optimization) ----------------

    def degree(self, i: int) -> int:
        """Degree of slot ``i`` within the subgraph (a popcount)."""
        return self.row(i).bit_count()

    def num_edges(self) -> int:
        """Number of undirected edges (the running total; O(1))."""
        return self._num_edges

    def is_connected(self) -> bool:
        """Whether the subgraph is connected, via bitwise frontier expansion."""
        n = len(self._rows)
        if n == 0 or self._num_edges < n - 1:
            return False
        if n <= 3:
            return True  # n - 1 edges on at most three slots always span them
        return _reaches(self._symmetric_rows(), 0, 0) == n

    def is_connected_without(self, i: int) -> bool:
        """Whether the subgraph stays connected when slot ``i`` is removed.

        Used by minimality checks such as graph keyword search (Algorithm 1
        line 7: ``IS_CONNECTED(s \\ v)``).
        """
        n = len(self._rows)
        self._check(i)
        if n <= 1:
            return False
        if n == 2:
            return True
        start = 0 if i != 0 else 1
        return _reaches(self._symmetric_rows(), start, 1 << i) == n - 1

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Yield undirected slot pairs (i, j) with i < j for each edge."""
        for i, r in enumerate(self._symmetric_rows()):
            bits = r >> (i + 1)
            j = i + 1
            while bits:
                if bits & 1:
                    yield (i, j)
                bits >>= 1
                j += 1

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(tuple(self._rows))

    def __repr__(self) -> str:
        n = len(self._rows)
        return f"BitMatrix({n} slots, {self.num_edges()} edges)"


def _reaches(rows: List[int], start: int, excluded: int) -> int:
    """Number of slots reachable from ``start`` avoiding the ``excluded`` bits."""
    visited = 1 << start
    frontier = rows[start] & ~excluded
    while frontier:
        visited |= frontier
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~(visited | excluded)
    return visited.bit_count()

"""Per-window delta index: O(1) "was this edge updated at ts?" lookups.

Algorithm 3's same-window test (``TIMESTAMP(v, u) == ts``) and
DETECT_CHANGES both ask whether an edge was added or deleted exactly at a
window timestamp.  Answering that from the record layout means scanning
the edge's :class:`~repro.store.mvstore.EdgeInterval` version list on
every probe; DDSL-style incremental indexing does better by maintaining,
*at apply time*, a map from each window timestamp to the set of edge keys
it touched.  Both probes become single dict lookups.

The index is an exact mirror of the interval facts: ``add_edge(u, v, ts)``
records ``(ts, key, added=True)``, ``delete_edge`` records ``(ts, key,
added=False)``, and garbage collection discards exactly the facts of the
interval versions it drops — so index answers and interval scans agree at
every timestamp, before and after any reclaim.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.types import EdgeKey, Timestamp


class DeltaIndex:
    """Window timestamp -> {edge key -> added?} map, maintained at apply time."""

    __slots__ = ("_by_ts",)

    def __init__(self) -> None:
        self._by_ts: Dict[Timestamp, Dict[EdgeKey, bool]] = {}

    def note(self, ts: Timestamp, key: EdgeKey, added: bool) -> None:
        """Record that ``key`` was added (or deleted) exactly at ``ts``."""
        self._by_ts.setdefault(ts, {})[key] = added

    def window(self, ts: Timestamp) -> Dict[EdgeKey, bool]:
        """The live ``key -> added`` dict of window ``ts``, for a writer
        that notes a whole window: ``window(ts)[key] = added`` is
        :meth:`note` without the per-fact lookup of ``ts``."""
        return self._by_ts.setdefault(ts, {})

    def updated_at(self, key: EdgeKey, ts: Timestamp) -> bool:
        """O(1) membership probe: was ``key`` touched by window ``ts``?"""
        window = self._by_ts.get(ts)
        return window is not None and key in window

    def keys_in(self, ts: Timestamp) -> Dict[EdgeKey, bool]:
        """The full update set of window ``ts`` (a defensive copy)."""
        window = self._by_ts.get(ts)
        return dict(window) if window else {}

    def discard(self, ts: Timestamp, key: EdgeKey) -> int:
        """Forget one fact (GC dropped its interval); returns 0 or 1."""
        window = self._by_ts.get(ts)
        if window is None or key not in window:
            return 0
        del window[key]
        if not window:
            del self._by_ts[ts]
        return 1

    def size(self) -> int:
        """Total edge facts held across all windows."""
        return sum(len(window) for window in self._by_ts.values())

    def items(self) -> Iterator[Tuple[Timestamp, EdgeKey, bool]]:
        for ts in sorted(self._by_ts):
            window = self._by_ts[ts]
            for key in sorted(window):
                yield ts, key, window[key]

    def clear(self) -> None:
        self._by_ts.clear()

"""Store read-path microbenchmark: the per-window delta index vs interval scans.

Every :class:`GraphStore` keeps a per-window **delta index** maintained at
apply time, which makes the DETECT_CHANGES membership probes O(1):
``edge_updated_at`` (one per update) and ``updated_keys_in`` (one per
window) answer from a dict instead of scanning edge intervals — for
``updated_keys_in``, the intervals of every record.

Two stores are fed the identical evolving workload:

* ``raw`` — ``MultiVersionStore(delta_index=False)``, the interval-scan
  reference path, and
* ``indexed`` — the default store (delta index on).

Before any timing, a full windowed-mining read pattern (every window's
update endpoints' neighbour states, plus the probes) must give the same
checksum on both: the stores are observationally identical (see
tests/property/test_store_equivalence.py).  Only the probes the index
serves are timed — the neighbour-state reads run the same code on both
stores, so timing them would only dilute the difference.  Best-of-N
minimizes scheduler noise.  Results land in the current PR's repo-root
bench file (see ``_harness.BENCH_PATH``).
"""

import time

from _harness import WINDOW, lj_bench, print_table, record_bench

from repro.graph.generators import shuffled_edges
from repro.store.mvstore import MultiVersionStore

ROUNDS = 5

#: fraction of lj-bench preloaded at ts=1; the rest arrives in windows
PRELOAD = 0.5


def _evolving_store(delta_index):
    """Build one store from the shared evolving workload.

    Half of lj-bench is preloaded at ts=1; the remaining edges arrive in
    WINDOW-sized batches at ts 2, 3, ...  Returns (store, windows) where
    windows is ``[(ts, batch), ...]`` for the read passes to replay.
    """
    graph = lj_bench()
    edges = shuffled_edges(graph, seed=11)
    cut = int(len(edges) * PRELOAD)
    store = MultiVersionStore(delta_index=delta_index)
    for u, v in edges[:cut]:
        store.add_edge(u, v, 1)
    windows = []
    pending = edges[cut:]
    ts = 2
    for i in range(0, len(pending), WINDOW):
        batch = pending[i : i + WINDOW]
        for u, v in batch:
            store.add_edge(u, v, ts)
        windows.append((ts, batch))
        ts += 1
    return store, windows


def _probe_pass(store, windows):
    """The DETECT_CHANGES probes of every window; returns a checksum."""
    checksum = 0
    for ts, batch in windows:
        for u, v in batch:
            checksum += store.edge_updated_at(u, v, ts)
        checksum += len(store.updated_keys_in(ts))
    return checksum


def _read_pass(store, windows):
    """The windowed-mining read pattern; returns an equivalence checksum."""
    checksum = _probe_pass(store, windows)
    for ts, batch in windows:
        for v in sorted({v for edge in batch for v in edge}):
            checksum += len(store.neighbor_states_at(v, ts))
    return checksum


def _time_best(fn, rounds=ROUNDS):
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_store_read_path(benchmark):
    raw_store, windows = _evolving_store(delta_index=False)
    indexed_store, windows_b = _evolving_store(delta_index=True)
    assert [ts for ts, _ in windows] == [ts for ts, _ in windows_b]

    # identical reads out of both stores before any timing
    assert _read_pass(raw_store, windows) == _read_pass(indexed_store, windows)

    def measure():
        return {
            "raw": _time_best(lambda: _probe_pass(raw_store, windows)),
            "indexed": _time_best(lambda: _probe_pass(indexed_store, windows)),
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = results["raw"] / results["indexed"]
    delta_entries = indexed_store.store_stats()["delta_entries"]

    print_table(
        "DETECT_CHANGES probes (lj-bench evolving, best of %d)" % ROUNDS,
        ["Variant", "Seconds", "Speedup"],
        [
            ("interval scans", f"{results['raw']:.4f}", "—"),
            ("delta index", f"{results['indexed']:.4f}", f"{speedup:.2f}x"),
        ],
    )
    print("  %d delta facts" % delta_entries)
    record_bench(
        "store_read",
        {
            "workload": "lj-bench evolving, %d-update windows, "
            "edge_updated_at per update + updated_keys_in per window" % WINDOW,
            "raw_s": results["raw"],
            "indexed_s": results["indexed"],
            "speedup": speedup,
            "delta_entries": delta_entries,
        },
    )

    # Acceptance criterion: the delta index must beat the interval scans
    # on the probes it serves.
    assert results["indexed"] < results["raw"], results

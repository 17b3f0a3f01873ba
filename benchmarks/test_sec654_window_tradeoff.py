"""Section 6.5.4: the latency-throughput tradeoff of snapshot windows.

Paper (4-C on LJ, 8 machines): throughput rises with window size — 133M
matches/s at 10K-update windows, 142M/s at 100K, 155M/s at 1M (+17%) —
while mean per-window latency grows almost linearly: 311ms at 10K, 2.91s
at 100K, 26.9s at 1M.

Scaled reproduction: windows of 10 / 100 / 1000 updates over the same
update stream (scaled from the paper's 10K/100K/1M), measuring per-window
wall latency and overall delta throughput.  Shape: latency grows roughly
linearly with window size; throughput does not degrade (snapshot-based
exploration amortizes repeated unsuccessful exploration).
"""

import pytest

from _harness import (
    additions,
    fmt_rate,
    fmt_seconds,
    lj_bench,
    print_table,
    record,
    run_updates,
)

from repro.apps import CliqueMining
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.generators import shuffled_edges
from repro.store.mvstore import MultiVersionStore

WINDOW_SIZES = [10, 100, 1000]


def test_sec654_latency_throughput(benchmark):
    graph = lj_bench()
    edges = shuffled_edges(graph, seed=5)
    preload, pending = edges[: len(edges) // 2], edges[len(edges) // 2 :]

    def run_all():
        import time

        from repro.core.engine import TesseractEngine
        from repro.streaming.ingress import IngressNode, Window
        from repro.streaming.queue import WorkQueue
        from repro.types import Update

        results = {}
        for window in WINDOW_SIZES:
            base = AdjacencyGraph()
            for v in graph.vertices():
                base.add_vertex(v)
            for u, v in preload:
                base.add_edge(u, v)
            store = MultiVersionStore.from_adjacency(base, ts=1)
            queue = WorkQueue()
            ingress = IngressNode(store, queue, window_size=window)
            for u, v in pending:
                ingress.submit(Update.add_edge(u, v))
            ingress.flush()
            windows = {}
            while True:
                item = queue.poll()
                if item is None:
                    break
                queue.ack(item.offset)
                windows.setdefault(item.timestamp, Window(item.timestamp)).updates.append(
                    item.update
                )
            engine = TesseractEngine(store, CliqueMining(4, min_size=3))
            deltas = []
            latencies = []
            for ts in sorted(windows):
                start = time.perf_counter()
                deltas.extend(engine.process_window(windows[ts]))
                latencies.append(time.perf_counter() - start)
            seconds = sum(latencies)
            metrics = engine.metrics
            results[window] = {
                "throughput": len(deltas) / seconds if seconds else 0.0,
                "mean_latency": sum(latencies) / len(latencies),
                "num_windows": len(latencies),
                "deltas": len(deltas),
                "expansions": metrics.expansions,
            }
        return results

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print_table(
        "Section 6.5.4: window size vs latency and throughput (4-C)",
        ["Window", "Mean latency", "Throughput", "Expansions"],
        [
            (
                w,
                fmt_seconds(r["mean_latency"]),
                fmt_rate(r["throughput"]),
                r["expansions"],
            )
            for w, r in sorted(results.items())
        ],
    )
    record(
        "sec654",
        {str(w): {k: v for k, v in r.items()} for w, r in results.items()},
    )

    # same final output regardless of windowing
    counts = {r["deltas"] for r in results.values()}
    assert len(counts) == 1
    # latency grows with the window (roughly linearly)
    lat = {w: results[w]["mean_latency"] for w in WINDOW_SIZES}
    assert lat[10] < lat[100] < lat[1000]
    assert lat[1000] > 20 * lat[10]
    # larger windows do less repeated exploration work per update
    exp = {w: results[w]["expansions"] for w in WINDOW_SIZES}
    assert exp[1000] <= exp[100] <= exp[10]
    # and throughput does not collapse (paper: +17% from 10K to 1M).
    # The expansion counts above are the noise-free form of this check;
    # wall-clock throughput at millisecond scale jitters under load, so
    # only a gross regression fails here.
    thr = {w: results[w]["throughput"] for w in WINDOW_SIZES}
    assert thr[1000] > 0.5 * thr[10]

"""Network transport microbenchmark: RPC overhead, batching, fetch-ahead.

PR 7 put a real TCP path under the store (``repro.net``): framed RPC with
deadlines and retries, a :class:`StoreServer`, and the wire-backed
:class:`NetStoreClient`.  Three costs matter for mining over that path:

* the **per-call round trip** — every protocol read that misses the
  client cache pays it, so it bounds how chatty exploration can afford
  to be,
* the **batching win** — ``prefetch`` ships one ``multi_get`` frame for
  a whole frontier instead of one ``get_record`` round trip per vertex,
  which is the lever the paper's fetch-ahead strategy turns, and
* the **fetch-ahead win** — ``prefetch`` keeps several ``multi_get``
  chunk requests in flight on one connection, so the server encodes the
  next reply while the client decodes the current one, across the
  process boundary, instead of the two running back to back.

Each comparison reads the identical record set off the identical store,
so the timing difference is purely wire mechanics.  Loopback numbers
are a lower bound on real-network gains: batching and fetch-ahead both
amortize per-call latency, and loopback latency is as small as it gets.
The fetch-ahead experiment runs the server in a **subprocess** (the
``serve-store`` CLI): against an in-process loopback server the GIL
serializes both sides and the overlap cannot show up.  Results land in
the current PR's repo-root bench file (see ``_harness.BENCH_PATH``).
"""

import subprocess
import sys
import time
from pathlib import Path

from _harness import lj_bench, print_table, record_bench

from repro.graph.generators import erdos_renyi
from repro.net import NetStoreClient
from repro.store.mvstore import VertexRecord
from repro.types import EdgeUpdate

ROUNDS = 5

#: pings measured per round for the round-trip figure
PINGS = 200

#: frontier size fetched per batching round (every vertex cold)
FRONTIER = 250

#: chunk size for the fetch-ahead experiment — small enough that
#: several chunks are in flight per frontier, large enough to amortize
#: per-frame costs
PIPE_BATCH = 64

SRC = str(Path(__file__).parent.parent / "src")


def _time_best(fn):
    best = None
    for _ in range(ROUNDS):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


def test_net_rpc_overhead(benchmark):
    graph = lj_bench()
    client = NetStoreClient(graph=graph)
    vertices = sorted(graph.vertices())[:FRONTIER]

    rpc = client._rpc

    def ping_pass():
        for _ in range(PINGS):
            rpc.call("ping", {})

    def singles_pass():
        client.drop_cache()
        for v in vertices:
            client.get_record(v)

    def batched_pass():
        client.drop_cache()
        client.prefetch(vertices)

    # both fetch paths must materialize the same records
    client.drop_cache()
    singles = {v: client.get_record(v).edges.keys() for v in vertices}
    client.drop_cache()
    client.prefetch(vertices)
    assert {v: client._cache[v].edges.keys() for v in vertices} == singles

    def measure():
        return {
            "ping": _time_best(ping_pass),
            "singles": _time_best(singles_pass),
            "batched": _time_best(batched_pass),
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    client.close()

    round_trip_s = results["ping"] / PINGS
    speedup = results["singles"] / results["batched"]
    print_table(
        "Net RPC (loopback, best of %d)" % ROUNDS,
        ["Operation", "Seconds", "Per item", "Speedup"],
        [
            ("ping x%d" % PINGS, f"{results['ping']:.4f}",
             f"{round_trip_s * 1e6:.0f}us", "—"),
            ("get_record x%d" % FRONTIER, f"{results['singles']:.4f}",
             f"{results['singles'] / FRONTIER * 1e6:.0f}us", "—"),
            ("prefetch(%d)" % FRONTIER, f"{results['batched']:.4f}",
             f"{results['batched'] / FRONTIER * 1e6:.0f}us",
             f"{speedup:.2f}x"),
        ],
    )
    record_bench(
        "net_rpc",
        {
            "ping_round_trip_s": round_trip_s,
            "single_fetch_total_s": results["singles"],
            "batched_fetch_total_s": results["batched"],
            "batch_speedup_x": speedup,
            "frontier": FRONTIER,
        },
    )
    # a whole-frontier batch must beat per-vertex round trips
    assert speedup > 1.5


def _dense_graph():
    """A denser frontier than ``lj_bench``: the fetch-ahead win
    scales with per-record payload, and the paper's stores are far
    denser than the scaled-down mining graphs used elsewhere."""
    return erdos_renyi(600, 12000, seed=7)


def test_net_pipeline_fetch_ahead(benchmark):
    """Fetch-ahead ``prefetch`` vs the same chunks fetched one ``call`` at
    a time: same server process, same frontier, same records held.  The
    ``net_pipeline`` leaves keep their names: ``blocking_fetch_total_s``
    is the sequential pass, ``pipelined_fetch_total_s`` the window."""
    graph = _dense_graph()
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-store", "--addr", "127.0.0.1:0"],
        stdout=subprocess.PIPE,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    try:
        banner = server.stdout.readline()
        host, _, port = banner.strip().rsplit(" ", 1)[-1].partition(":")
        addr = (host, int(port))

        loader = NetStoreClient(addr)
        edges = graph.sorted_edges()
        for i in range(0, len(edges), 512):
            loader.apply_edge_updates(
                1, [EdgeUpdate(u, v, added=True) for u, v in edges[i : i + 512]]
            )
        loader.close()

        vertices = sorted(graph.vertices())[:FRONTIER]
        sequential = NetStoreClient(addr, batch_size=PIPE_BATCH)
        windowed = NetStoreClient(addr, batch_size=PIPE_BATCH)

        def sequential_pass():
            sequential.drop_cache()
            for chunk in sequential._chunks(vertices):
                reply = sequential._rpc.call("multi_get", {"vs": chunk})
                for v in chunk:
                    sequential._hold(v, reply.records.get(v) or VertexRecord())

        def windowed_pass():
            windowed.drop_cache()
            windowed.prefetch(vertices)

        # both paths must materialize the identical records, in one order
        sequential_pass()
        windowed_pass()
        assert list(windowed._cache.items()) == list(sequential._cache.items())

        def measure():
            return {
                "sequential": _time_best(sequential_pass),
                "windowed": _time_best(windowed_pass),
            }

        results = benchmark.pedantic(measure, rounds=1, iterations=1)
        sequential.close()
        windowed.close()
    finally:
        server.terminate()
        server.wait(timeout=10)

    speedup = results["sequential"] / results["windowed"]
    print_table(
        "Net fetch-ahead (subprocess server, best of %d)" % ROUNDS,
        ["Fetch path", "Seconds", "Per record", "Speedup"],
        [
            ("sequential x%d" % FRONTIER, f"{results['sequential']:.4f}",
             f"{results['sequential'] / FRONTIER * 1e6:.0f}us", "—"),
            ("fetch-ahead x%d" % FRONTIER, f"{results['windowed']:.4f}",
             f"{results['windowed'] / FRONTIER * 1e6:.0f}us",
             f"{speedup:.2f}x"),
        ],
    )
    record_bench(
        "net_pipeline",
        {
            "blocking_fetch_total_s": results["sequential"],
            "pipelined_fetch_total_s": results["windowed"],
            "pipeline_speedup_x": speedup,
            "frontier": FRONTIER,
            "pipeline_batch": PIPE_BATCH,
        },
    )
    # the window earns its code only by beating the sequential calls
    assert speedup > 1.0

"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``
    Build a synthetic dataset stand-in and write it as an edge list.

``mine``
    Run a mining algorithm over an update stream (or a static edge list)
    and print the match deltas and summary statistics.

``motifs``
    Print the motif census of a static graph.

``report``
    Render a run report (latency, pruning effectiveness, imbalance, hottest
    updates) from a profile JSON file written by ``mine --profile-out``.

``datasets``
    List the available dataset stand-ins.

``serve-store``
    Serve a graph store over TCP (:mod:`repro.net`) so other processes
    can mine against it with ``mine --store net --store-addr``; grows a
    live ops surface with ``--telemetry-addr`` (``/metrics``,
    ``/healthz``) and a server-side trace file with ``--trace-out``.

``top``
    One-shot (or ``--interval`` repeated) text view of a running
    serve-store telemetry endpoint's hot methods.

``trace-merge``
    Stitch client + server trace JSONL files into one tree and print the
    per-RPC client/wire/server/store time decomposition.

``lint``
    Run repro-lint, the project's AST-based invariant checker
    (:mod:`repro.analysis`), over the source tree.
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
import time
from typing import Any, List, Optional

from repro.apps import (
    CliqueMining,
    CycleMining,
    DiamondMining,
    GraphKeywordSearch,
    LabeledCliqueMining,
    MotifCounting,
    PathMining,
    count_motifs,
)
from repro.dataflow.aggregation import SumAggregator
from repro.graph.datasets import GKS_LABELS, dataset_names, dataset_spec, load_dataset
from repro.graph.io import read_edge_list, read_update_stream, write_edge_list
from repro.runtime.backend import BACKEND_NAMES
from repro.store.api import STORE_NAMES
from repro.runtime.session import StreamingSession
from repro.types import Update


def _make_algorithm(spec: str):
    """Parse an algorithm spec like ``4-C``, ``4-CL``, ``3-MC``, ``4-GKS-3``."""
    parts = spec.upper().split("-")
    try:
        if len(parts) == 2 and parts[1] == "C":
            return CliqueMining(int(parts[0]), min_size=3)
        if len(parts) == 2 and parts[1] == "CL":
            return LabeledCliqueMining(int(parts[0]), min_size=3)
        if len(parts) == 2 and parts[1] == "MC":
            return MotifCounting(int(parts[0]), min_size=3)
        if len(parts) == 2 and parts[1] == "PATH":
            return PathMining(int(parts[0]))
        if len(parts) == 2 and parts[1] == "CYCLE":
            return CycleMining(int(parts[0]))
        if spec.upper() == "DIAMOND":
            return DiamondMining()
        if len(parts) == 3 and parts[1] == "GKS":
            k, n = int(parts[0]), int(parts[2])
            return GraphKeywordSearch(list(GKS_LABELS)[:n], k=k)
    except ValueError:
        pass
    raise SystemExit(
        f"unknown algorithm {spec!r}; try 4-C, 4-CL, 3-MC, 4-PATH, "
        f"4-CYCLE, DIAMOND, or 4-GKS-3"
    )


def cmd_generate(args: argparse.Namespace) -> int:
    """Write a synthetic dataset stand-in as an edge-list file."""
    graph = load_dataset(args.dataset, seed=args.seed, labeled=args.labeled)
    write_edge_list(graph, args.output)
    print(
        f"wrote {args.dataset} ({graph.num_vertices()} vertices, "
        f"{graph.num_edges()} edges) to {args.output}"
    )
    return 0


def cmd_datasets(_args: argparse.Namespace) -> int:
    """Print the dataset stand-ins and their paper counterparts."""
    for name in dataset_names():
        spec = dataset_spec(name)
        print(
            f"{name:<8} stands in for {spec.paper_name} "
            f"({spec.paper_vertices} vertices / {spec.paper_edges} edges, "
            f"{spec.domain})"
        )
    return 0


def _write_text(path: str, text: str) -> None:
    """Write to a file, or to stdout when the path is ``-``."""
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_mine(args: argparse.Namespace) -> int:
    """Mine an update stream and/or a static graph, printing deltas."""
    algorithm = _make_algorithm(args.algorithm)
    initial = read_edge_list(args.graph) if args.graph else None
    telemetry = None
    if args.trace_out or args.metrics_out or args.flame_out:
        from repro.telemetry import Telemetry

        # the node identity stamps trace exports (trace.meta) so
        # 'repro trace-merge' can stitch them with a server's file
        telemetry = Telemetry(node="client")
    profiling = bool(args.profile_out or args.report)
    if not args.updates and initial is None:
        raise SystemExit("provide --updates, --graph, or both")
    if args.workers < 1:
        raise SystemExit(f"--workers must be at least 1, got {args.workers}")
    session_kwargs = dict(
        window_size=args.window,
        num_workers=args.workers,
        store=args.store,
        store_addr=args.store_addr,
        store_batch=args.store_batch,
        telemetry=telemetry,
        profile=profiling,
    )
    from repro.net.errors import NetError

    # NEW - REM.  A REM may retract a match that pre-dates the preload and
    # was never emitted as NEW, so a COUNT sink would go below zero there.
    signed_sum = SumAggregator(key=lambda _delta: 1)
    start = time.perf_counter()
    try:
        if args.updates:
            session = StreamingSession(
                algorithm, args.backend, initial_graph=initial, **session_kwargs
            )
            net = session.output_stream().agg(signed_sum)
            session.submit_many(read_update_stream(args.updates))
        else:
            # static mode: re-mine the provided graph as an addition stream
            session = StreamingSession(algorithm, args.backend, **session_kwargs)
            net = session.output_stream().agg(signed_sum)
            session.submit_graph(initial)
        session.flush()
    except NetError as exc:
        raise SystemExit(f"mine: network store unavailable: {exc}")
    elapsed = time.perf_counter() - start
    deltas = session.deltas()
    if not args.quiet:
        for delta in deltas:
            vertices = ",".join(str(v) for v in sorted(delta.subgraph.vertices))
            print(f"{delta.timestamp}\t{delta.status.value}\t{vertices}")
    news = sum(1 for d in deltas if d.is_new())
    if args.updates and initial is not None:
        total = f"{net.value():+d} net change"
    else:
        total = f"{net.value()} live matches"
    print(
        f"# {algorithm.name}: {news} NEW / {len(deltas) - news} REM, "
        f"{total}, {elapsed:.2f}s",
        file=sys.stderr,
    )
    print(
        f"# backend={session.backend.name} store={session.store.kind} "
        f"windows: {session.latency_summary().report()}",
        file=sys.stderr,
    )
    if args.report:
        print(session.run_report(top_k=args.top).render(), file=sys.stderr)
    if args.metrics_out:
        _write_text(
            args.metrics_out,
            session.collect_registry().dump(args.metrics_format),
        )
    if args.trace_out:
        if args.trace_out == "-":
            session.export_trace(sys.stdout)
        else:
            with open(args.trace_out, "w") as fh:
                session.export_trace(fh)
    if args.flame_out:
        if args.flame_out == "-":
            session.export_folded(sys.stdout)
        else:
            with open(args.flame_out, "w") as fh:
                session.export_folded(fh)
    if args.profile_out:
        import json

        from repro.telemetry.report import profile_document

        doc = profile_document(
            session.collect_profile(),
            session.window_stats,
            meta={
                "algorithm": algorithm.name,
                "backend": session.backend.name,
                "store": session.store.kind,
            },
            store_stats=session.store.store_stats(),
        )
        _write_text(args.profile_out, json.dumps(doc, sort_keys=True) + "\n")
    session.close()
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render a run report from a previously exported profile JSON file."""
    from repro.telemetry.report import load_report

    try:
        report = load_report(args.profile, top_k=args.top)
    except (OSError, ValueError) as exc:
        # json.JSONDecodeError is a ValueError; so is a schema mismatch.
        print(f"repro report: {args.profile}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        sys.stdout.write(report.dump_json())
    else:
        print(report.render())
    return 0


def _is_clique(vertices, edges) -> bool:
    return len(edges) == len(vertices) * (len(vertices) - 1) // 2


def _is_connected(vertices, edges) -> bool:
    reached = {vertices[0]}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in reached) != (v in reached):
                reached.update((u, v))
                grew = True
    return len(reached) == len(vertices)


#: what ``verify`` mines: (name, algorithm factory, largest match, whether
#: a vertex set with these induced edges is a match).  Each predicate is
#: the app's definition, written without the engine or the app's code.
_VERIFIED = (
    ("4-C", lambda: CliqueMining(4, min_size=3), 4, _is_clique),
    ("3-MC", lambda: MotifCounting(3, min_size=3), 3, _is_connected),
)


def _brute_force_matches(n: int, edges, max_size: int, is_match) -> set:
    """``MatchSubgraph.identity`` of every match of the graph on vertices
    ``0..n-1``: every vertex set of 3 to ``max_size`` vertices is tried."""
    present = set(edges)
    found = set()
    for size in range(3, max_size + 1):
        for vertices in itertools.combinations(range(n), size):
            induced = frozenset(
                e for e in itertools.combinations(vertices, 2) if e in present
            )
            if is_match(vertices, induced):
                found.add((frozenset(vertices), induced))
    return found


def cmd_verify(args: argparse.Namespace) -> int:
    """Self-check: incremental mining == brute force on random graphs.

    Each trial mines one random add/delete stream on at most 9 vertices
    with 4-C and with 3-MC (where most nodes keep both graph versions
    live), and compares the matches the deltas leave with an enumeration
    of every vertex set of the final graph.
    """
    from repro.core.engine import collect_matches

    rng = random.Random(args.seed)
    failures = 0
    for trial in range(args.trials):
        n = rng.randint(5, 9)
        possible = list(itertools.combinations(range(n), 2))
        window_size = rng.choice([1, 3, 5])
        present = set()
        updates = []
        for _ in range(30):
            e = rng.choice(possible)
            if e in present and rng.random() < 0.4:
                present.discard(e)
                updates.append(Update.delete_edge(*e))
            elif e not in present:
                present.add(e)
                updates.append(Update.add_edge(*e))
        exact = True
        for name, factory, max_size, is_match in _VERIFIED:
            session = StreamingSession(factory(), window_size=window_size)
            session.submit_many(updates)
            live = collect_matches(session.flush())
            session.close()
            ok = live == _brute_force_matches(n, present, max_size, is_match)
            exact = exact and ok
            if not args.quiet or not ok:
                print(f"trial {trial:>3} {name:>4}: {len(present):>2} edges, "
                      f"{len(live):>3} matches ... {'ok' if ok else 'MISMATCH'}")
        failures += not exact
    print(f"{args.trials - failures}/{args.trials} trials exact")
    return 1 if failures else 0


def cmd_serve_store(args: argparse.Namespace) -> int:
    """Serve a graph store over TCP until interrupted."""
    from repro.net.server import StoreServer
    from repro.net.wire import split_address
    from repro.store.api import make_store

    graph = read_edge_list(args.graph) if args.graph else None
    store = make_store(args.kind, num_shards=args.shards, graph=graph)
    try:
        host, port = split_address(args.addr)
    except ValueError as exc:
        raise SystemExit(f"serve-store: {exc}")
    telemetry = None
    if args.trace_out:
        from repro.telemetry import Telemetry

        telemetry = Telemetry(node=args.node)
    server = StoreServer(store, host, port, telemetry=telemetry)
    host, port = server.address
    # parsed by scripts (and the CI smoke step) to discover the bound port
    print(f"serving {store.kind} store on {host}:{port}", flush=True)
    telemetry_server = None
    if args.telemetry_addr:
        from repro.net.ops import TelemetryServer

        try:
            t_host, t_port = split_address(args.telemetry_addr)
        except ValueError as exc:
            raise SystemExit(f"serve-store: {exc}")
        telemetry_server = TelemetryServer(server, t_host, t_port).start()
        t_host, t_port = telemetry_server.address
        print(f"telemetry on {t_host}:{t_port}", flush=True)
    # Background-launched processes (`serve-store ... &` from a script, as
    # in the CI smoke) inherit SIGINT as SIG_IGN, and Python leaves an
    # inherited ignore in place — `kill -INT` would then do nothing and the
    # trace export below would never run.  Install handlers explicitly so
    # both SIGINT and SIGTERM always reach the graceful-shutdown path.
    import signal

    def _interrupt(_signum: int, _frame: Any) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGINT, _interrupt)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        if telemetry_server is not None:
            telemetry_server.close()
        if telemetry is not None and args.trace_out:
            with open(args.trace_out, "w") as fh:
                telemetry.tracer.export_jsonl(fh)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Text view of a serve-store telemetry endpoint's hot methods."""
    import json as json_mod

    from repro.net.errors import NetError
    from repro.net.ops import http_get, render_top

    rounds = 0
    while True:
        try:
            status, body = http_get(args.addr, "/statz", timeout=args.timeout)
        except NetError as exc:
            raise SystemExit(f"top: {exc}")
        if status != 200:
            raise SystemExit(f"top: {args.addr}/statz answered HTTP {status}")
        try:
            stats = json_mod.loads(body)
        except ValueError as exc:
            raise SystemExit(f"top: {args.addr}/statz is not JSON: {exc}")
        print(render_top(stats, limit=args.limit), flush=True)
        rounds += 1
        if args.interval is None or (args.count and rounds >= args.count):
            return 0
        print(flush=True)
        time.sleep(args.interval)


def cmd_trace_merge(args: argparse.Namespace) -> int:
    """Stitch per-node trace files and print the RPC decomposition."""
    from repro.telemetry.merge import merge_trace_paths

    try:
        merged = merge_trace_paths(args.traces, default_nodes=args.node)
    except OSError as exc:
        raise SystemExit(f"trace-merge: {exc}")
    except ValueError as exc:
        raise SystemExit(
            f"trace-merge: {exc} (use --node to name identity-less files)"
        )
    if args.json_out:
        doc = merged.to_json()
        if args.json_out == "-":
            sys.stdout.write(doc + "\n")
        else:
            with open(args.json_out, "w") as fh:
                fh.write(doc + "\n")
    print(merged.render(top=args.top))
    skewed = [s for s in merged.skew if not s.consistent]
    return 1 if skewed and args.fail_on_skew else 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run repro-lint (``repro.analysis``) over the given paths."""
    from repro.analysis import main as lint_main

    argv: List[str] = list(args.paths)
    if args.list_rules:
        argv.append("--list-rules")
    if args.json_output:
        argv += ["--json-output", args.json_output]
    return lint_main(argv)


def cmd_motifs(args: argparse.Namespace) -> int:
    """Print the motif census of a static edge-list graph."""
    graph = read_edge_list(args.graph)
    from repro.core.engine import TesseractEngine

    algorithm = MotifCounting(args.k, min_size=args.k)
    deltas = TesseractEngine.run_static(graph, algorithm)
    census = count_motifs(deltas)
    for form, n in sorted(census.items(), key=lambda kv: (-kv[1], str(kv[0]))):
        print(f"{n:>10}  {form}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI (one sub-command per operation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tesseract reproduction: mine patterns on evolving graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset as an edge list")
    p.add_argument("dataset", choices=list(dataset_names()))
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--labeled", action="store_true", help="assign GKS labels")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("datasets", help="list dataset stand-ins")
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("mine", help="mine an update stream or a static graph")
    p.add_argument("algorithm", help="e.g. 4-C, 4-CL, 3-MC, 4-GKS-3, DIAMOND")
    p.add_argument("--graph", help="edge-list file preloaded before updates")
    p.add_argument("--updates", help="update-stream file to process")
    p.add_argument("--window", type=int, default=100, help="updates per window")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--backend",
        choices=list(BACKEND_NAMES),
        default="serial",
        help="execution backend for window processing (default: serial)",
    )
    p.add_argument(
        "--store",
        choices=list(STORE_NAMES),
        default="mv",
        help="graph store kind backing the session (default: mv)",
    )
    p.add_argument(
        "--store-addr",
        metavar="HOST:PORT",
        help="with --store net: connect to a running 'repro serve-store' "
        "server instead of spawning an embedded loopback one",
    )
    p.add_argument(
        "--store-batch",
        type=int,
        metavar="N",
        help="with --store net: records per multi_get chunk (default: 256, "
        "capped by the server's max_batch)",
    )
    p.add_argument("--quiet", action="store_true", help="suppress per-delta output")
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="enable tracing; write spans as JSON lines to FILE ('-' = stdout)",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the metrics registry to FILE ('-' = stdout)",
    )
    p.add_argument(
        "--metrics-format",
        choices=["prom", "json"],
        default="json",
        help="exposition format for --metrics-out (default: json)",
    )
    p.add_argument(
        "--flame-out",
        metavar="FILE",
        help="enable tracing; write folded flamegraph stacks to FILE ('-' = stdout)",
    )
    p.add_argument(
        "--profile-out",
        metavar="FILE",
        help="enable exploration profiling; write the profile JSON to FILE "
        "(render later with 'repro report')",
    )
    p.add_argument(
        "--report",
        action="store_true",
        help="enable exploration profiling and print a run report to stderr",
    )
    p.add_argument(
        "--top",
        type=int,
        default=5,
        help="hottest updates listed in the report (default: 5)",
    )
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser(
        "report", help="render a run report from 'mine --profile-out' JSON"
    )
    p.add_argument("profile", help="profile JSON file written by mine --profile-out")
    p.add_argument("--json", action="store_true", help="emit the report as JSON")
    p.add_argument(
        "--top",
        type=int,
        default=5,
        help="hottest updates listed in the report (default: 5)",
    )
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("motifs", help="motif census of a static edge list")
    p.add_argument("graph")
    p.add_argument("-k", type=int, default=3, help="motif size")
    p.set_defaults(func=cmd_motifs)

    p = sub.add_parser(
        "verify", help="self-check incremental mining against brute force"
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "serve-store", help="serve a graph store over TCP (see --store net)"
    )
    p.add_argument(
        "--addr",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="bind address; port 0 picks a free port (printed on startup)",
    )
    p.add_argument(
        "--kind",
        choices=["mv", "sharded"],
        default="mv",
        help="store kind to serve (default: mv)",
    )
    p.add_argument("--shards", type=int, default=8)
    p.add_argument("--graph", help="edge-list file preloaded into the store")
    p.add_argument(
        "--telemetry-addr",
        metavar="HOST:PORT",
        help="also serve /metrics, /healthz, and /statz on this address "
        "(port 0 picks a free port, printed on startup)",
    )
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        help="enable server-side tracing; write spans as JSON lines to FILE "
        "on shutdown (merge with the client file via 'repro trace-merge')",
    )
    p.add_argument(
        "--node",
        default="server",
        help="node identity stamped on the trace export (default: server)",
    )
    p.set_defaults(func=cmd_serve_store)

    p = sub.add_parser(
        "top", help="hot-methods view of a serve-store --telemetry-addr endpoint"
    )
    p.add_argument("addr", metavar="HOST:PORT", help="the --telemetry-addr address")
    p.add_argument(
        "--interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="repeat every SECONDS (default: one-shot)",
    )
    p.add_argument(
        "--count",
        type=int,
        default=0,
        metavar="N",
        help="with --interval: stop after N snapshots (default: run forever)",
    )
    p.add_argument("--limit", type=int, default=10, help="ops shown (default: 10)")
    p.add_argument("--timeout", type=float, default=5.0)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "trace-merge",
        help="stitch client+server trace JSONL files into one decomposed tree",
    )
    p.add_argument("traces", nargs="+", help="trace JSONL files (client, server, ...)")
    p.add_argument(
        "--node",
        action="append",
        default=None,
        metavar="NAME",
        help="node name for the Nth file when it lacks a trace.meta line "
        "(repeatable, positional)",
    )
    p.add_argument(
        "--json-out",
        metavar="FILE",
        help="also write the merged document as JSON ('-' = stdout)",
    )
    p.add_argument(
        "--top", type=int, default=10, help="ops shown in the table (default: 10)"
    )
    p.add_argument(
        "--fail-on-skew",
        action="store_true",
        help="exit 1 when a node pair's clocks cannot be reconciled",
    )
    p.set_defaults(func=cmd_trace_merge)

    p = sub.add_parser(
        "lint", help="run the repro-lint invariant checker (every rule, one run)"
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint, every rule in one run "
        "(default: src/repro)",
    )
    p.add_argument(
        "--json-output", metavar="FILE", help="also write the JSON report to FILE"
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rules and exit"
    )
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

"""One benchmark run: one workload, one seed, one process.

    python3 benchmarks/e2e/run.py --workload clique4-mv-serial --seed 7 \\
        --seconds 10 --trace 0

Load model: a **closed loop with one client**.  The driver hands one window
(100 updates) to ``submit_many``, calls ``flush()``, and only then sends the
next window; the only other processes are the system's own (a
``serve-store`` child, two pool workers).  Inputs are generated from
``--seed`` before anything is timed; the program sees only those inputs.

**Fixed work.**  ``--seconds`` sets how much work a run measures, not when it
stops: after five warm-up windows the run times ``timed_windows * seconds /
10`` windows (200 at the nominal 10 s; 1000 for ``ingest-empty-mv``), which
takes about ``--seconds`` on this box for the median workload.  The update
stream densifies the graph as it goes, so a loop that stopped on a timer
would measure cheaper windows on a slower box; with the work fixed, counts
and the delta digest repeat bit for bit and the p95 always has ten samples
beyond it.

**Reference-machine time.**  Every reported time is normalised by the
calibration kernel interleaved with the windows (``calibrate.py``); raw
wall-clock values are printed on the ``# raw`` line and kept in the record.

An untraced run (``--trace 0``) reports the end-to-end metrics.  A traced run
(``--trace 1``) does the same work with the layers wrapped in the benchmark's
own timing proxies (``probe.py``), prints every per-layer metric and writes
``out/trace-<workload>.jsonl``.  Both run checks (a) and (b) of ``check.py``.

The last line of stdout is one JSON object: ``correct``, ``attempted``
(windows), ``failed`` (windows that raised; all of them when a check fails)
and ``metrics``.  Exit code 1 when a check or a window failed, 2 when the
program under test is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

if not (ROOT / "src" / "repro").is_dir():
    # the benchmark measures this checkout's program, never an installed copy
    sys.stderr.write(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing\n")
    raise SystemExit(2)

import calibrate  # noqa: E402
import check  # noqa: E402
import probe as probing  # noqa: E402
import workloads as wl  # noqa: E402

#: untraced runs set up this many times and report the median
SETUP_REPEATS = 3
_TICK = os.sysconf("SC_CLK_TCK")
_clock = time.perf_counter


def p95(samples) -> float:
    """The highest percentile with ten samples beyond it at n = 200."""
    return statistics.quantiles(samples, n=20)[18]


def declared_metrics():
    """The metric names and units, from the one place that declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


# -- process accounting ---------------------------------------------------------


def proc_cpu_s(pid) -> float:
    """user+sys CPU seconds of a live child (it is not reaped yet)."""
    if pid is None:
        return 0.0
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def proc_peak_rss_mb(pid) -> float:
    if pid is None:
        return 0.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_snapshot(server_pid):
    """(driver, reaped children, live server) CPU seconds so far."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime,
        kids.ru_utime + kids.ru_stime,
        proc_cpu_s(server_pid),
    )


# -- the closed loop ------------------------------------------------------------


def core_counts(session) -> dict:
    """The exact counts every run reports, read from public surfaces."""
    m = session.metrics()
    ingress = session.ingress
    return {
        "core.expansions": m.expansions,
        "core.can_expand_calls": m.can_expand_calls,
        "core.filter_calls": m.filter_calls,
        "core.match_calls": m.match_calls,
        "core.emits": m.emits,
        "core.explore_calls": m.explore_calls,
        "streaming.updates_accepted": ingress.updates_accepted,
        "streaming.updates_dropped": ingress.updates_dropped,
        "streaming.windows": ingress.windows_applied,
    }


def drive(system, stream, first, last, probe):
    """Send windows ``first..last`` one at a time; returns the loop's record."""
    session = system.session
    server_pid = system.server.pid if system.server else None
    latencies, kernel_s = [], []
    failed = 0
    cpu0 = cpu_snapshot(server_pid)
    for w in range(first, last):
        window = stream[w * wl.WINDOW : (w + 1) * wl.WINDOW]
        span = None
        if probe is not None:
            probe.window = w - first
            span = probe.open("window")
        t0 = _clock()
        try:
            session.submit_many(window)
            session.flush()
        except Exception:  # a failed window is a counted outcome, not a crash
            failed += 1
            traceback.print_exc()
        t1 = _clock()
        if span is not None:
            probe.close(span)
        latencies.append(t1 - t0)
        kernel_s.append(calibrate.kernel())
    cpu1 = cpu_snapshot(server_pid)
    return {
        "windows": last - first,
        "wall_s": sum(latencies),
        "latencies": latencies,
        "kernel_s": kernel_s,
        "failed": failed,
        # the kernel is pure CPU of the driver: its wall is its CPU
        "cpu_self_s": cpu1[0] - cpu0[0] - sum(kernel_s),
        "cpu_children_s": cpu1[1] - cpu0[1],
        "cpu_server_s": cpu1[2] - cpu0[2],
    }


def run_workload(workload, seed, seconds, trace, scale=1.0):
    """Generate inputs, set up, warm up, measure, check; returns the record."""
    t0 = _clock()
    inputs = wl.make_inputs(workload, seed, seconds, scale)
    preload = wl.write_preload(workload, inputs)
    gen_s = _clock() - t0
    probe = probing.Probe() if trace else None
    setups = []
    system = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if system is not None:
                system.close()
                system = None
            around = calibrate.burst()
            t0 = _clock()
            system = wl.build_system(workload, inputs, preload, probe)
            raw = _clock() - t0
            around += calibrate.burst()
            setups.append({"raw_s": raw, "norm_s": raw * calibrate.factor(around)})
        record = _measure(workload, inputs, system, probe)
    finally:
        if system is not None:
            system.close()
        if preload is not None:
            preload.unlink(missing_ok=True)
    if not trace:
        record["metrics"]["setup_s"] = statistics.median(s["norm_s"] for s in setups)
    record.update(seed=seed, scale=scale, trace=bool(trace))
    record["info"].update(gen_s=gen_s, setups=setups)
    return record


def _measure(workload, inputs, system, probe):
    session, stream = system.session, inputs.stream
    warm = drive(system, stream, 0, wl.WARMUP_WINDOWS, None)
    if probe is not None:
        probe.reset()
    gc.collect()
    loop = drive(
        system, stream, wl.WARMUP_WINDOWS, wl.WARMUP_WINDOWS + inputs.timed_windows, probe
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    counts = core_counts(session)
    windows = loop["windows"]
    updates = windows * wl.WINDOW
    wall = loop["wall_s"]
    speed = calibrate.factor(loop["kernel_s"])
    problems = []

    if probe is not None:
        summary = probe.summary()
        ledger = probing.layer_ledger(summary, workload.backend == "serial")
        metrics = _layer_metrics(workload, system, probe, summary, ledger, loop, speed)
        metrics.update(counts)
        bad = probing.check_ledger(ledger, summary, wall)
        if bad:
            problems.append(bad)
        wl.OUT.mkdir(exist_ok=True)
        probe.write_jsonl(wl.OUT / f"trace-{workload.name}.jsonl")
    else:
        local = calibrate.local_factors(loop["kernel_s"])
        lat_ms = [s * f * 1e3 for s, f in zip(loop["latencies"], local)]
        cpu = loop["cpu_self_s"] + loop["cpu_children_s"] + loop["cpu_server_s"]
        metrics = {
            "updates_per_s": updates * 1e3 / sum(lat_ms),
            "window_latency_p50_ms": statistics.median(lat_ms),
            "window_latency_p95_ms": p95(lat_ms),
            "cpu_ms_per_update": cpu * speed * 1e3 / updates,
            "peak_rss_mb": peak_rss_mb,
        }

    deltas = session.deltas()
    keys = check.delta_keys(deltas)
    problems += check.check_run(
        workload.app, deltas, keys, inputs.base_edges, stream, system.store
    )
    failed = loop["failed"] + warm["failed"]
    attempted = windows + wl.WARMUP_WINDOWS
    if problems:
        failed = attempted
    raw_ms = [s * 1e3 for s in loop["latencies"]]
    return {
        "workload": workload.name,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_pct": 100.0 * failed / attempted,
        "problems": problems,
        "digest": check.listing_digest(keys),
        "counts": counts,
        "metrics": metrics,
        "info": {
            "windows": windows,
            "deltas": len(deltas),
            "speed_factor": speed,
            "wall_s": wall * speed,
            "raw_wall_s": wall,
            "raw_updates_per_s": updates / wall,
            "raw_p50_ms": statistics.median(raw_ms),
            "raw_p95_ms": p95(raw_ms),
        },
    }


# -- per-layer metrics of a traced run ----------------------------------------------


def _layer_metrics(workload, system, probe, s, ledger, loop, speed):
    """Every per-layer metric: counts from public surfaces, times from spans.

    ``s`` is the trace summary; every time is scaled by ``speed`` into
    reference-machine seconds (shares are ratios and need no scaling).
    """
    session, store = system.session, system.store
    wall = loop["wall_s"]
    windows = loop["windows"]
    out = {}

    # net.* first: the store reads below are RPCs on the net workload
    names = (
        "rpcs", "rpcs_per_window", "bytes_sent", "bytes_received", "retries",
        "deadline_hits", "rpc_p50_ms", "fetches", "client_cache_entries",
        "server_cpu_s", "server_rss_mb",
    )  # fmt: skip
    out.update(("net." + name, 0) for name in names)
    stats = store.store_stats()
    if workload.store == "net":
        log = store.net_log
        out["net.rpcs"] = log.rpcs
        out["net.rpcs_per_window"] = log.rpcs / (windows + wl.WARMUP_WINDOWS)
        out["net.bytes_sent"] = log.bytes_sent
        out["net.bytes_received"] = log.bytes_received
        out["net.retries"] = log.retries
        out["net.deadline_hits"] = log.deadline_hits
        out["net.rpc_p50_ms"] = statistics.median(log.latencies_s) * speed * 1e3
        out["net.fetches"] = store.log.fetches
        out["net.client_cache_entries"] = stats["client_cache_entries"]
        out["net.server_cpu_s"] = loop["cpu_server_s"] * speed
        out["net.server_rss_mb"] = proc_peak_rss_mb(system.server.pid)

    out["core.explore.self_s"] = ledger["core"] * speed
    out["core.explore.share_pct"] = 100.0 * ledger["core"] / wall
    out["apps.filter.busy_s"] = s.fold_busy["apps.filter"] * speed
    out["apps.match.busy_s"] = s.fold_busy["apps.match"] * speed

    reads = ("store.neighbor_states", "store.read")
    out["store.read.calls"] = sum(s.fold_calls[b] for b in reads)
    out["store.read.busy_s"] = sum(s.fold_busy[b] for b in reads) * speed
    out["store.neighbor_states.calls"] = s.fold_calls["store.neighbor_states"]
    out["store.neighbor_states.busy_s"] = s.fold_busy["store.neighbor_states"] * speed
    out["store.maintain.busy_s"] = s.fold_busy["store.maintain"] * speed
    out["store.cache.hit_ratio"] = stats.get("cache_hit_ratio", 0.0)
    out["store.cache.entries"] = stats.get("cache_entries", 0)
    out["store.apply.calls"] = s.calls["store.apply"]
    out["store.apply.busy_s"] = s.busy["store.apply"] * speed
    out["store.delta_entries"] = stats.get("delta_entries", 0)
    out["store.memory_items"] = store.memory_items()
    out["store.tombstones"] = store.tombstone_count()

    out["streaming.ingress.busy_s"] = s.busy["streaming.ingest"] * speed
    out["streaming.ingress.self_s"] = ledger["streaming"] * speed
    out["streaming.queue.depth_max"] = probe.queue_depth_max
    out["streaming.queue.acked"] = session.queue.acked_count()

    tasks = sum(w.num_updates for w in session.window_stats[wl.WARMUP_WINDOWS :])
    run_tasks = s.busy["runtime.backend.run_tasks"] * speed
    out["runtime.run_pending.self_s"] = s.self_s["runtime.run_pending"] * speed
    out["runtime.backend.run_tasks.busy_s"] = run_tasks
    out["runtime.backend.per_task_us"] = run_tasks * 1e6 / tasks
    out["runtime.backend.parent_cpu_s"] = s.cpu["runtime.backend.run_tasks"] * speed
    pooled = workload.backend == "process"
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out["runtime.workers.cpu_s"] = loop["cpu_children_s"] * speed if pooled else 0.0
    out["runtime.workers.rss_mb"] = kids.ru_maxrss / 1024.0 if pooled else 0.0

    out["dataflow.push.busy_s"] = s.busy["dataflow.push"] * speed
    out["dataflow.records_in"] = probe.records_in
    out["dataflow.groups"] = len(system.sink.state())
    out["graph.canonical.calls"] = s.fold_calls["graph.canonical"]
    out["graph.canonical.busy_s"] = s.fold_busy["graph.canonical"] * speed

    out["telemetry.spans_recorded"] = 0
    out["telemetry.registry_series"] = 0
    out["telemetry.export.busy_s"] = 0.0
    if workload.telemetry:
        t0 = _clock()
        registry = session.collect_registry()
        session.run_report()
        out["telemetry.export.busy_s"] = (_clock() - t0) * speed
        out["telemetry.spans_recorded"] = session.telemetry.tracer.spans_recorded
        out["telemetry.registry_series"] = sum(
            len(family.children) for family in registry.families()
        )

    out["trace.wall_s"] = wall * speed
    out["budget.unattributed_pct"] = 100.0 * (wall - sum(ledger.values())) / wall
    return out


# -- command line -------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.BY_NAME))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink inputs (self-check)")
    ap.add_argument("--out", help="also write the full run record here, as JSON")
    args = ap.parse_args(argv)

    end_to_end, per_layer = declared_metrics()
    record = run_workload(
        wl.BY_NAME[args.workload], args.seed, args.seconds, args.trace, args.scale
    )
    declared = per_layer if args.trace else end_to_end
    record["metrics"] = {
        m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
        for m in declared
    }
    info = record["info"]
    print(
        f"# {record['workload']} seed={record['seed']} trace={args.trace} "
        f"windows={info['windows']} deltas={info['deltas']} gen_s={info['gen_s']:.3f}"
    )
    print(
        f"# raw: wall={info['raw_wall_s']:.3f}s "
        f"updates/s={info['raw_updates_per_s']:.1f} p50={info['raw_p50_ms']:.2f}ms "
        f"p95={info['raw_p95_ms']:.2f}ms speed_factor={info['speed_factor']:.3f}"
    )
    for name, cell in record["metrics"].items():
        print(f"{name} {cell['value']:.6g} {cell['unit']}")
    print(f"failed_pct {record['failed_pct']:.6g} %")
    if not args.trace:
        for name, value in record["counts"].items():
            print(f"{name} {value} count")
    print(f"digest {record['digest']}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh)
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

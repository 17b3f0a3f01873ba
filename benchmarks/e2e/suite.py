"""All workloads, repeated: medians, quartiles, cross-run checks, A/A.

    python3 benchmarks/e2e/suite.py [--seed N] [--repeats R] [--workloads a,b]
        [--seconds S] [--trace] [--aa] [--vary-seed] [--scale F] [--out FILE]

Every run is a fresh ``run.py`` subprocess.  Repeats are round-robin passes
over all workloads, because this box drifts by ~20% between phases of
minutes while staying within a few percent inside one: interleaving puts
every workload (and, with ``--aa``, both sets) in every phase.

Prints every end-to-end metric per workload as median, quartiles and n,
runs checks (c) and (d) over all runs (each run has already done (a) and
(b)), and exits non-zero when any check or run failed.

``--trace`` adds one traced pass and the per-layer table, including the
ratios that need two runs: ``trace.overhead_pct`` (traced / untraced wall of
the same windows - 1), ``net.vs_mv_x`` and ``telemetry.overhead_pct`` (wall
against ``clique4-mv-serial``, which is handed the identical stream).

``--aa`` makes two interleaved sets of ``--repeats`` runs of the same code
and prints, per metric x workload, both medians, their ratio and PASS/FAIL
against the metric's bound, the way a parent/change comparison would.
``--vary-seed`` gives repeat ``i`` the seed ``--seed + i`` (the acceptance
procedure: spread over ten seeds); by default all repeats share one seed so
that counts and digests must repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import workloads as wl  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: bool, scale: float) -> dict:
    """One ``run.py`` subprocess; returns its full record."""
    wl.OUT.mkdir(exist_ok=True)
    out = wl.OUT / f"record-{os.getpid()}.json"
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--scale", str(scale), "--out", str(out),
    ]  # fmt: skip
    started = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        if not out.exists():
            raise RuntimeError(f"{' '.join(cmd)} left no record:\n{proc.stderr[-2000:]}")
        with open(out) as fh:
            record = json.load(fh)
    finally:
        out.unlink(missing_ok=True)
    record["info"]["process_s"] = time.perf_counter() - started
    return record


def quartiles(values):
    """(median, q1, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def values_of(records, name):
    return [r["metrics"][name]["value"] for r in records]


def worse_by(metric: dict, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    change = (other - base) / base
    return -change if metric["better"] == "higher" else change


def print_set(title, records_by_workload, metrics) -> None:
    for workload, records in records_by_workload.items():
        print(f"\n== {workload} — {title} (n={len(records)})")
        for m in metrics:
            med, q1, q3 = quartiles(values_of(records, m["name"]))
            spread = (q3 - q1) / med if med else 0.0
            print(
                f"{m['name']:<34} {med:>12.6g} {m['unit']:<6} "
                f"q1 {q1:<11.6g} q3 {q3:<11.6g} n {len(records)} spread {spread:6.1%}"
            )
        failed = statistics.median(r["failed_pct"] for r in records)
        print(f"{'failed_pct':<34} {failed:>12.6g} %")


def print_aa(set_a, set_b, end_to_end) -> bool:
    ok = True
    print("\n== A/A: two interleaved sets of the same code")
    print(f"{'workload':<26}{'metric':<24}{'A':>11}{'B':>11}  B/A    bound  verdict")
    for workload in set_a:
        for m in end_to_end:
            a, _, _ = quartiles(values_of(set_a[workload], m["name"]))
            b, _, _ = quartiles(values_of(set_b[workload], m["name"]))
            worse = max(worse_by(m, a, b), worse_by(m, b, a))
            verdict = "PASS" if worse <= m["bound"] else "FAIL"
            ok &= verdict == "PASS"
            print(
                f"{workload:<26}{m['name']:<24}{a:>11.5g}{b:>11.5g}  "
                f"{b / a:5.3f}  {m['bound']:5.2f}  {verdict}"
            )
    return ok


def print_layers(traced, untraced, per_layer) -> None:
    def wall(workload):
        return statistics.median(r["info"]["wall_s"] for r in untraced[workload])

    for workload, record in traced.items():
        print(f"\n== {workload} — per-layer, traced run")
        for m in per_layer:
            print(f"{m['name']:<36} {record['metrics'][m['name']]['value']:>14.6g} {m['unit']}")
        overhead = record["info"]["wall_s"] / wall(workload) - 1
        print(f"{'trace.overhead_pct':<36} {100 * overhead:>14.6g} %")
        reference = "clique4-mv-serial"
        if workload != reference and workload in wl.CLIQUE4_GROUP and reference in untraced:
            ratio = wall(workload) / wall(reference)
            if workload == "clique4-net-serial":
                print(f"{'net.vs_mv_x':<36} {ratio:>14.6g} x")
            if workload == "clique4-mv-telemetry":
                print(f"{'telemetry.overhead_pct':<36} {100 * (ratio - 1):>14.6g} %")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--workloads", default=",".join(w.name for w in wl.WORKLOADS))
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--aa", action="store_true")
    ap.add_argument("--vary-seed", action="store_true")
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--out", help="write every run record and the summary here, as JSON")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workloads.split(",")
    unknown = [n for n in names if n not in wl.BY_NAME]
    if unknown:
        ap.error(f"unknown workloads: {unknown}")

    sets = [{n: [] for n in names} for _ in range(2 if args.aa else 1)]
    every = []
    for i in range(args.repeats):
        seed = args.seed + i if args.vary_seed else args.seed
        for name in names:
            # alternate which set goes first, as parent/change pairs would
            order = list(range(len(sets)))
            if i % 2:
                order.reverse()
            for which in order:
                record = run_once(name, seed, seconds, False, args.scale)
                sets[which][name].append(record)
                every.append(record)
                print(
                    f"[{i + 1}/{args.repeats}] {name} set {'AB'[which]} seed {seed}: "
                    f"{record['metrics']['updates_per_s']['value']:.1f} updates/s, "
                    f"failed_pct {record['failed_pct']:g}, {record['info']['process_s']:.1f} s",
                    flush=True,
                )
    traced = {}
    if args.trace:
        for name in names:
            traced[name] = run_once(name, args.seed, seconds, True, args.scale)
            every.append(traced[name])

    for which, records in enumerate(sets):
        print_set(f"set {'AB'[which]}" if args.aa else "end to end", records, spec["end_to_end"])
    if traced:
        print_layers(traced, sets[0], spec["per_layer"])
    ok = True
    if args.aa:
        ok &= print_aa(sets[0], sets[1], spec["end_to_end"])
        for name in names:
            a, b = sets[0][name][0], sets[1][name][0]
            if not args.vary_seed and a["counts"] != b["counts"]:
                ok = False
                print(f"CHECK FAILED: {name}: counts differ between the A/A sets")

    problems = [f"{r['workload']} seed {r['seed']}: {p}" for r in every for p in r["problems"]]
    problems += [
        f"{r['workload']} seed {r['seed']}: {r['failed']} of {r['attempted']} windows failed"
        for r in every
        if r["failed"] and not r["problems"]
    ]
    problems += check.cross_run_problems(every, wl.CLIQUE4_GROUP)
    print(f"\nchecks (a)-(d) over {len(every)} runs: {'ok' if not problems else 'FAILED'}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"args": vars(args), "runs": every, "problems": problems}, fh)
    return 0 if ok and not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())

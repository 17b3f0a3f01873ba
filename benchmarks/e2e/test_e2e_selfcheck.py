"""Self-check of the end-to-end benchmark (outside the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_selfcheck.py -q

Smoke-runs all six workloads at ``--scale 0.05`` (a few seconds each) and
checks what the benchmark promises about itself: every declared metric is
printed exactly once, counts and digests repeat exactly for one seed and
change with the seed, the ``clique4-*`` cells agree, and the output checks
do catch a corrupted delta list.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import check  # noqa: E402
import workloads as wl  # noqa: E402

SCALE = "0.05"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=7, trace=0, tmp=None, cwd=ROOT, script=HERE / "run.py", env=None):
    cmd = [
        sys.executable, str(script), "--workload", workload, "--seed", str(seed),
        "--seconds", "10", "--trace", str(trace), "--scale", SCALE,
    ]  # fmt: skip
    if tmp is not None:
        cmd += ["--out", str(tmp / "record.json")]
    proc = subprocess.run(
        cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )
    record = None
    if tmp is not None and (tmp / "record.json").exists():
        record = json.loads((tmp / "record.json").read_text())
    return proc, record


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """(proc, record) per (workload, trace) for seed 7."""
    tmp = tmp_path_factory.mktemp("e2e")
    out = {}
    for w in wl.WORKLOADS:
        for trace in (0, 1):
            proc, record = run(w.name, trace=trace, tmp=tmp)
            assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
            out[w.name, trace] = (proc, record)
    return out


def test_benchmark_json_declares_the_workloads():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in wl.WORKLOADS]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_declared_metric_is_printed_exactly_once(smoke):
    for (_workload, trace), (proc, _record) in smoke.items():
        lines = proc.stdout.splitlines()
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for m in declared:
            hits = [ln for ln in lines[:-1] if ln.split(" ")[0] == m["name"]]
            assert len(hits) == 1, (m["name"], hits)
            assert hits[0].endswith(" " + m["unit"])
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        assert all(
            result["metrics"][m["name"]]["unit"] == m["unit"] for m in declared
        )
        if not trace:
            assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_same_seed_repeats_exactly_and_seeds_differ(smoke, tmp_path):
    first = smoke["clique4-mv-serial", 0][1]
    _, again = run("clique4-mv-serial", tmp=tmp_path)
    assert again["counts"] == first["counts"]
    assert again["digest"] == first["digest"]
    _, other = run("clique4-mv-serial", seed=8, tmp=tmp_path)
    assert other["digest"] != first["digest"]


def test_clique4_cells_and_traced_runs_agree(smoke):
    records = [record for _proc, record in smoke.values()]
    assert check.cross_run_problems(records, wl.CLIQUE4_GROUP) == []
    digests = {smoke[name, t][1]["digest"] for name in wl.CLIQUE4_GROUP for t in (0, 1)}
    assert len(digests) == 1


def test_layer_metrics_are_where_they_should_be(smoke):
    for w in wl.WORKLOADS:
        layers = smoke[w.name, 1][1]["metrics"]
        net = [v["value"] for name, v in layers.items() if name.startswith("net.")]
        if w.store == "net":
            quiet = {"net.retries", "net.deadline_hits"}
            assert all(
                v["value"] > 0
                for name, v in layers.items()
                if name.startswith("net.") and name not in quiet
            )
        else:
            assert not any(net)
        assert (layers["core.expansions"]["value"] == 0) == (w.app == "empty")
        assert (layers["graph.canonical.calls"]["value"] > 0) == (w.app == "motif3")
        assert (layers["telemetry.spans_recorded"]["value"] > 0) == w.telemetry
        assert (layers["runtime.workers.cpu_s"]["value"] > 0) == (w.backend == "process")
        assert (HERE / "out" / f"trace-{w.name}.jsonl").exists()


def test_trace_file_tiles_the_traced_wall(smoke):
    record = smoke["motif3-mv-serial", 1][1]
    spans = [
        json.loads(line)
        for line in (HERE / "out" / "trace-motif3-mv-serial.jsonl").read_text().splitlines()
    ]
    by_id = {s["id"]: s for s in spans}
    assert {s["name"] for s in spans} >= {
        "window", "streaming.ingest", "store.apply", "runtime.run_pending",
        "runtime.backend.run_tasks", "dataflow.push",
    }  # fmt: skip
    for s in spans:
        if s["name"] != "window":
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"]
            assert parent["window"] == s["window"]
    folded = sum(c["busy_s"] for s in spans for c in s["folded"].values())
    total = sum(s["self_s"] for s in spans) + folded
    assert total == pytest.approx(record["info"]["raw_wall_s"], rel=0.05)


@pytest.fixture(scope="module")
def small_run():
    """A scaled clique4 run, in process: (inputs, processed updates, deltas)."""
    workload = wl.BY_NAME["clique4-mv-serial"]
    inputs = wl.make_inputs(workload, 7, scale=float(SCALE))
    system = wl.build_system(workload, inputs, None)
    try:
        system.session.submit_many(inputs.stream)
        system.session.flush()
        deltas = system.session.deltas()
        assert check.check_run(
            workload.app, deltas, check.delta_keys(deltas), inputs.base_edges,
            inputs.stream, system.store,
        ) == []  # fmt: skip
    finally:
        system.close()
    return inputs, deltas


def test_corrupted_delta_lists_fail_the_checks(small_run):
    inputs, deltas = small_run
    final = check.replay(inputs.base_edges, inputs.stream)
    # (a) a delta delivered twice
    assert check.duplicates(check.delta_keys(deltas + [deltas[0]])) == 1
    # (b) a lost delta moves the net count off the oracle's
    assert check.oracle_mismatches("clique4", deltas[1:], inputs.base_edges, final)
    assert check.oracle_mismatches("clique4", deltas, inputs.base_edges, final) == []
    # (b) a store that lost an update disagrees with the replay
    class LossyStore:
        latest_timestamp = 0

        def edges_at(self, ts):
            return sorted(final)[1:]

    assert check.store_mismatch(LossyStore(), final)
    # (c) one spurious delta changes the digest, and the cross-run check sees it
    counts = dict.fromkeys(check.CORE_COUNTERS, 0)
    good = {"workload": "clique4-mv-serial", "seed": 7, "scale": 1.0, "counts": counts,
            "digest": check.listing_digest(check.delta_keys(deltas))}  # fmt: skip
    bad = dict(good, workload="clique4-net-serial",
               digest=check.listing_digest(check.delta_keys(deltas[1:])))  # fmt: skip
    assert check.cross_run_problems([good, good], wl.CLIQUE4_GROUP) == []
    assert check.cross_run_problems([good, bad], wl.CLIQUE4_GROUP)
    # (d) one counter off by one
    off = dict(good, counts=dict(counts, **{"core.expansions": 1}))
    assert check.cross_run_problems([good, off], wl.CLIQUE4_GROUP)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )  # fmt: skip
    script = tmp_path / "benchmarks" / "e2e" / "run.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc, _ = run("clique4-mv-serial", cwd=tmp_path, script=script, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""

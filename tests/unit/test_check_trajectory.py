"""The cross-PR trajectory gate sees the experiments it must gate.

``benchmarks/check_trajectory.py`` discovers time-like leaves
generically (keys ending ``_s``/``_seconds``), so a new benchmark is
covered by naming its wall-time measurements accordingly.  These tests
pin that contract for the PR 10 ``net_pipeline`` experiment — if its
keys are ever renamed away from the ``_s`` convention, the gate would
silently stop comparing them and this fails instead.
"""

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_trajectory", REPO / "benchmarks" / "check_trajectory.py"
)
check_trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_trajectory)


class TestNetPipelineCoverage:
    DOC = {
        "net_pipeline": {
            "blocking_fetch_total_s": 0.030,
            "pipelined_fetch_total_s": 0.012,
            "pipeline_speedup_x": 2.5,
            "frontier": 250,
            "pipeline_batch": 64,
        }
    }

    def test_time_leaves_include_both_fetch_timings(self):
        leaves = dict(check_trajectory.time_leaves(self.DOC))
        assert leaves == {
            "net_pipeline.blocking_fetch_total_s": 0.030,
            "net_pipeline.pipelined_fetch_total_s": 0.012,
        }  # speedup ratio and counts are not gated; timings are

    def test_regression_in_pipelined_fetch_fails_the_gate(self):
        older = dict(check_trajectory.time_leaves(self.DOC))
        slower = json.loads(json.dumps(self.DOC))
        slower["net_pipeline"]["pipelined_fetch_total_s"] = 0.020
        newer = dict(check_trajectory.time_leaves(slower))
        regressions = check_trajectory.compare(older, newer, threshold=0.15)
        assert [key for key, *_ in regressions] == [
            "net_pipeline.pipelined_fetch_total_s"
        ]

    def test_current_bench_file_records_the_experiment(self):
        bench = REPO / "BENCH_PR10.json"
        doc = json.loads(bench.read_text())
        leaves = dict(check_trajectory.time_leaves(doc))
        assert "net_pipeline.blocking_fetch_total_s" in leaves
        assert "net_pipeline.pipelined_fetch_total_s" in leaves


class TestReclamationBar:
    """``sec656_gc`` has an absolute bar: its first measurement has no
    predecessor for the pairwise comparison to hold it to."""

    LEAF = "sec656_gc.on_s/raw"

    def test_the_pair_is_read_as_a_ratio_to_the_run_with_gc_off(self):
        doc = {"sec656_gc": {"raw_s": 2.0, "on_s": 2.1, "on_range": [2.0, 2.3]}}
        assert dict(check_trajectory.time_leaves(doc)) == {self.LEAF: 1.05}

    def test_slower_than_nine_tenths_of_the_throughput_is_over_the_bar(self):
        assert check_trajectory.over_ceiling({self.LEAF: 1.05}) == []
        assert check_trajectory.over_ceiling({}) == []
        ((key, value, ceiling),) = check_trajectory.over_ceiling({self.LEAF: 1.2})
        assert (key, value) == (self.LEAF, 1.2) and 1.11 < ceiling < 1.12

    def test_current_bench_file_is_under_the_bar(self):
        leaves = check_trajectory.load_leaves(REPO / "BENCH_PR10.json")
        assert self.LEAF in leaves
        assert check_trajectory.over_ceiling(leaves) == []

"""Framework-level tests for repro-lint: suppressions, registry, CLI, dogfood."""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import lint_project, lint_source, main
from repro.analysis.core import (
    PROJECT_RULES,
    RULES,
    active_project_rules,
    active_rules,
)
from repro.analysis.reporters import to_text

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src" / "repro"

FLAGGED = """\
import time

def stamp():
    return time.time()
"""


class TestSuppressions:
    def test_line_suppression(self):
        src = FLAGGED.replace(
            "return time.time()", "return time.time()  # repro: ignore[RL001]"
        )
        assert lint_source(src, "src/repro/runtime/_f.py") == []

    def test_line_suppression_is_rule_specific(self):
        src = FLAGGED.replace(
            "return time.time()", "return time.time()  # repro: ignore[RL002]"
        )
        assert [v.rule_id for v in lint_source(src, "src/repro/runtime/_f.py")] == [
            "RL001"
        ]

    def test_file_suppression(self):
        src = "# repro: ignore-file[RL001]\n" + FLAGGED
        assert lint_source(src, "src/repro/runtime/_f.py") == []

    def test_multiple_rules_in_one_comment(self):
        src = FLAGGED.replace(
            "return time.time()",
            "return time.time()  # repro: ignore[RL001, RL002]",
        )
        assert lint_source(src, "src/repro/runtime/_f.py") == []


class TestRegistry:
    def test_registry_has_exactly_the_shipped_rules(self):
        active_rules()  # force registration of both registries
        assert sorted(RULES) == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL010",
        ]
        assert sorted(PROJECT_RULES) == ["RL011"]

    def test_every_registered_rule_runs(self):
        # no selection: the driver instantiates each registered rule once
        assert sorted(r.rule_id for r in active_rules()) == sorted(RULES)
        assert sorted(r.rule_id for r in active_project_rules()) == sorted(
            PROJECT_RULES
        )


class TestReporters:
    def test_text_clean_summary(self):
        assert to_text([], 3) == "repro-lint: clean (3 files)\n"

    def test_text_violation_summary(self):
        violations = lint_source(FLAGGED, "src/repro/runtime/_f.py")
        text = to_text(violations, 1)
        assert text.splitlines()[-1] == "repro-lint: 1 violation in 1 file"


class TestCli:
    def test_exit_zero_on_clean_file(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_on_violation_with_json_artifact(self, tmp_path, capsys):
        target = tmp_path / "repro" / "runtime"
        target.mkdir(parents=True)
        bad = target / "bad.py"
        bad.write_text(FLAGGED)
        artifact = tmp_path / "report.json"
        assert main([str(bad), "--json-output", str(artifact)]) == 1
        assert "RL001" in capsys.readouterr().out
        doc = json.loads(artifact.read_text())
        assert doc["counts"] == {"RL001": 1}

    def test_unparsable_file_is_reported_and_counted(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        (tmp_path / "broken.py").write_text("def f(:\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "broken.py:1:" in out and "RL000" in out
        assert out.splitlines()[-1] == "repro-lint: 1 violation in 2 files"

    def test_missing_path_exits_two(self, tmp_path, capsys):
        # a mistyped path must not read as a clean run
        missing = tmp_path / "src" / "repo"
        assert main([str(missing)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"repro-lint: error: no Python files under {missing}\n"
        assert "clean" not in captured.out

    def test_directory_without_python_files_exits_two(self, tmp_path, capsys):
        (tmp_path / "notes.txt").write_text("x = 1\n")
        assert main([str(tmp_path / "notes.txt")]) == 2
        assert main([str(tmp_path)]) == 2
        assert "no Python files under" in capsys.readouterr().err

    def test_one_empty_path_fails_the_run(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target), str(tmp_path / "gone")]) == 2
        capsys.readouterr()

    def test_lint_run_writes_no_file(self, tmp_path, capsys):
        # no cache, no state: the tree is exactly as it was
        (tmp_path / "clean.py").write_text("x = 1\n")
        before = sorted(tmp_path.rglob("*"))
        assert main([str(tmp_path)]) == 0
        capsys.readouterr()
        assert sorted(tmp_path.rglob("*")) == before

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in [*RULES, *PROJECT_RULES]:
            assert rule_id in out

    def test_repro_lint_subcommand(self, tmp_path):
        from repro.cli import main as repro_main

        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert repro_main(["lint", str(target)]) == 0

    def test_repro_lint_is_the_same_run(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        target = tmp_path / "repro" / "runtime"
        target.mkdir(parents=True)
        (target / "bad.py").write_text(FLAGGED)
        runs = []
        for entry, argv in [(main, []), (repro_main, ["lint"])]:
            report = tmp_path / f"report-{len(runs)}.json"
            code = entry([*argv, str(tmp_path / "repro"), "--json-output", str(report)])
            runs.append((code, capsys.readouterr().out, report.read_bytes()))
        assert runs[0] == runs[1]
        assert runs[0][0] == 1

    def test_module_entry_point(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(target)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr


class TestDogfood:
    def test_src_repro_is_clean(self):
        """The shipped tree satisfies every rule in the one lint run."""
        violations, files_checked = lint_project(str(SRC))
        assert violations == [], to_text(violations, files_checked)
        assert files_checked > 70


def _replace(old, new):
    def edit(source):
        assert source.count(old) == 1, f"mutation anchor moved: {old!r}"
        return source.replace(old, new)

    return edit


def _append(text):
    return lambda source: source + "\n" + textwrap.dedent(text)


def _nest_slice_worker(source):
    """Move ``_slice_worker`` into ``ProcessBackend.run_tasks``."""
    start = source.index("def _slice_worker(")
    end = source.index("class ProcessBackend(")
    worker = textwrap.indent(source[start:end].rstrip("\n"), " " * 8)
    source = source[:start] + source[end:]
    return _replace(
        "        ctx = mp.get_context(", worker + "\n\n        ctx = mp.get_context("
    )(source)


#: one injected violation per check, at a site the check inspects in the
#: shipped tree: id -> (rule, file the finding lands in, [(file, edit)]);
#: an id is its rule's, with a suffix where one rule owns two checks
INJECTED = {
    "RL001": (
        "RL001",
        "runtime/session.py",
        [("runtime/session.py", _replace("now = time.perf_counter()", "now = time.time()"))],
    ),
    # a wall clock laundered through a helper in another module is caught
    # where it is read, in the helper
    "RL001-laundered": (
        "RL001",
        "cli.py",
        [
            (
                "cli.py",
                _append(
                    """\
                    def _wall_stamp():
                        return time.time()
                    """
                ),
            ),
            (
                "telemetry/bridge.py",
                _replace(
                    ").set_total(ingress.gc_reclaimed)", ").set_total(_wall_stamp())"
                ),
            ),
            ("telemetry/bridge.py", _append("from repro.cli import _wall_stamp\n")),
        ],
    ),
    # a clock reading handed to a helper that writes its argument to a
    # counter is caught where it is passed
    "RL001-argument": (
        "RL001",
        "telemetry/bridge.py",
        [
            (
                "telemetry/bridge.py",
                _replace(
                    'f"repro_queue_{stem}_total", help_text, value)',
                    'f"repro_queue_{stem}_total", help_text, time.perf_counter())',
                ),
            ),
            ("telemetry/bridge.py", _append("import time\n")),
        ],
    ),
    "RL002": ("RL002", "runtime/backend.py", [("runtime/backend.py", _nest_slice_worker)]),
    "RL003": (
        "RL003",
        "net/server.py",
        [
            (
                "net/server.py",
                _replace(
                    "        with self._lock:\n            self._inflight += 1\n",
                    "        self._inflight += 1\n        with self._lock:\n",
                ),
            )
        ],
    ),
    # close() takes the non-reentrant lock serve_forever() already holds
    "RL003-reacquire": (
        "RL003",
        "net/ops.py",
        [
            (
                "net/ops.py",
                _replace(
                    "                    conn.close()\n                    return\n",
                    "                    self.close()\n                    return\n",
                ),
            )
        ],
    ),
    "RL004": (
        "RL004",
        "telemetry/bridge.py",
        [("telemetry/bridge.py", _append("_SPAN = NullSpan()\n"))],
    ),
    "RL005": (
        "RL005",
        "apps/cliques.py",
        [("apps/cliques.py", _replace("        n = len(s)\n", "        self.last = n = len(s)\n"))],
    ),
    "RL006": (
        "RL006",
        "dataflow/stream.py",
        [
            (
                "dataflow/stream.py",
                _append(
                    """\
                    def _peek(store):
                        return store._records
                    """
                ),
            )
        ],
    ),
    "RL007": ("RL007", "store/remote.py", [("store/remote.py", _append("import socket\n"))]),
    "RL010": (
        "RL010",
        "net/server.py",
        [
            (
                "net/server.py",
                _append(
                    """\
                    def _swallow(fn):
                        try:
                            return fn()
                        except Exception:
                            return None
                    """
                ),
            )
        ],
    ),
    "RL011": (
        "RL011",
        "store/mvstore.py",
        [
            (
                "store/mvstore.py",
                _replace(
                    "def vertex_label_at(self, v: VertexId, ts: Timestamp)",
                    "def vertex_label_at(self, vertex: VertexId, ts: Timestamp)",
                ),
            )
        ],
    ),
}


@pytest.fixture(scope="module")
def injected_findings(tmp_path_factory):
    """Lint a copy of ``src/repro`` carrying every injected violation, once."""
    root = tmp_path_factory.mktemp("injected") / "repro"
    shutil.copytree(SRC, root, ignore=shutil.ignore_patterns("__pycache__"))
    for _, _, edits in INJECTED.values():
        for rel, edit in edits:
            target = root / rel
            target.write_text(edit(target.read_text()))
    violations, _ = lint_project(str(root))
    return {(v.rule_id, Path(v.path).relative_to(root).as_posix()) for v in violations}


class TestInjectedViolations:
    """Every rule fires on the shipped tree once its real site is broken."""

    @pytest.mark.parametrize("check", sorted(INJECTED))
    def test_one_lint_run_reports_the_injected_violation(
        self, check, injected_findings
    ):
        rule_id, landed_in, _ = INJECTED[check]
        assert (rule_id, landed_in) in injected_findings

    def test_rl002_flags_a_global_in_the_real_slice_worker(self):
        path = (SRC / "runtime" / "backend.py").as_posix()
        source = (SRC / "runtime" / "backend.py").read_text()
        mutated = _replace(
            "    try:\n        reply = _mine_slice(*slice_args)",
            "    global _LAST\n    _LAST = slice_args\n"
            "    try:\n        reply = _mine_slice(*slice_args)",
        )(source)
        assert lint_source(source, path) == []
        assert [v.rule_id for v in lint_source(mutated, path)] == ["RL002"]

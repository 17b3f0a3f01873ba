"""repro-lint: project-specific static analysis for the Tesseract repro.

Run it as ``python -m repro.analysis src/repro`` (or ``repro lint``): one
run parses the whole tree once and applies every rule.  The framework
lives in :mod:`repro.analysis.core` (driver, registry, suppressions), the
per-module invariants in :mod:`repro.analysis.rules` (RL001–RL007 and
RL010), the project loader in :mod:`repro.analysis.project`, the class
index in :mod:`repro.analysis.classindex` with its one cross-module rule
in :mod:`repro.analysis.project_rules` (RL011), and output formats in
:mod:`repro.analysis.reporters`.
See ``docs/internals.md`` ("Static analysis") for what each rule
protects and the suppression syntax.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.core import (
    PROJECT_RULES,
    RULES,
    ModuleContext,
    ProjectRule,
    Rule,
    Violation,
    lint_project,
    lint_source,
    project_rule,
    rule,
)
from repro.analysis.reporters import list_rules, to_json, to_text

__all__ = [
    "ModuleContext",
    "ProjectRule",
    "PROJECT_RULES",
    "Rule",
    "RULES",
    "Violation",
    "build_parser",
    "lint_project",
    "lint_source",
    "main",
    "project_rule",
    "rule",
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "AST-based invariant checker: determinism, backend purity, "
            "lock and telemetry discipline, exception taxonomy and "
            "protocol conformance"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--json-output",
        metavar="FILE",
        help="additionally write the JSON report to FILE (CI artifact)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print registered rules and exit"
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point shared by ``python -m repro.analysis`` and ``repro lint``."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        sys.stdout.write(list_rules())
        return 0
    try:
        violations, files_checked = lint_project(*args.paths)
    except (ValueError, OSError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(to_text(violations, files_checked))
    if args.json_output:
        Path(args.json_output).write_text(to_json(violations, files_checked))
    return 1 if violations else 0

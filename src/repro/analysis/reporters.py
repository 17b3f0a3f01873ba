"""Violation reporters: human text and stable, diffable JSON.

Both formats render violations in the same deterministic order (path,
line, column, rule id, message) and the JSON document is serialized with
sorted keys, so two runs over the same tree are byte-identical — CI can
archive the report as an artifact and diff it across commits.
"""

from __future__ import annotations

import json
from typing import Dict, List, Sequence

from repro.analysis.core import PROJECT_RULES, RULES, Violation


def _all_rules() -> Dict[str, type]:
    """Module-scope and project-scope rules, merged (ids are disjoint)."""
    from repro.analysis.core import _load_rule_modules

    _load_rule_modules()
    return {**RULES, **PROJECT_RULES}

#: bumped when the JSON document shape changes
REPORT_VERSION = 1


def to_text(violations: Sequence[Violation], files_checked: int) -> str:
    """One ``path:line:col: RULE message`` line per violation + a summary."""
    lines = [v.format() for v in sorted(violations)]
    noun = "file" if files_checked == 1 else "files"
    if violations:
        lines.append(
            f"repro-lint: {len(violations)} violation"
            f"{'s' if len(violations) != 1 else ''} in {files_checked} {noun}"
        )
    else:
        lines.append(f"repro-lint: clean ({files_checked} {noun})")
    return "\n".join(lines) + "\n"


def to_json_document(
    violations: Sequence[Violation], files_checked: int
) -> Dict[str, object]:
    """The report as a JSON-serializable document (sorted, versioned)."""
    counts: Dict[str, int] = {}
    for violation in violations:
        counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
    return {
        "version": REPORT_VERSION,
        "files_checked": files_checked,
        "rules": {
            rule_id: cls.summary for rule_id, cls in sorted(_all_rules().items())
        },
        "counts": dict(sorted(counts.items())),
        "violations": [v.to_dict() for v in sorted(violations)],
    }


def to_json(violations: Sequence[Violation], files_checked: int) -> str:
    return (
        json.dumps(
            to_json_document(violations, files_checked),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


def list_rules() -> str:
    """Registered rules as ``RLxxx: summary`` lines (for ``--list-rules``)."""
    out: List[str] = [
        f"{rule_id}  {cls.summary}"
        for rule_id, cls in sorted(_all_rules().items())
    ]
    return "\n".join(out) + "\n"

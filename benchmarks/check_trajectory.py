#!/usr/bin/env python
"""Cross-PR benchmark trajectory gate.

Each PR seeds a repo-root ``BENCH_PR<N>.json`` with its benchmark
measurements (see ``_harness.record_bench``).  This script walks those
files in PR order and compares every *time-like* numeric leaf — keys
ending in ``_s`` or ``_seconds`` — that two consecutive files share,
failing when a newer measurement regressed by more than the threshold
(default 15%).  Non-timing leaves (counts, ratios, targets) are ignored:
they change legitimately as features land.

Experiments that record a ``raw_s`` baseline (the overhead benchmarks)
are gated on *ratios to that baseline* rather than absolute seconds, and
the baseline itself is skipped: CI containers vary in speed run to run by
far more than any real code regression, but overhead relative to the raw
body measured in the same process is machine-independent.

A few such ratios also have an absolute bar (:data:`CEILINGS`), checked
on the newest file alone: a first measurement has no predecessor to
regress from.

Stdlib-only, so it runs in CI without the package installed:

    python benchmarks/check_trajectory.py [--threshold 0.15] [--warn-only]

Exit status: 0 when the trajectory holds (or fewer than two bench files
exist), 1 when a regression exceeds the threshold and ``--warn-only`` was
not given.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

BENCH_PATTERN = re.compile(r"^BENCH_PR(\d+)\.json$")

#: numeric leaves with these key suffixes are wall-time measurements
TIME_SUFFIXES = ("_s", "_seconds")

#: leaf -> the most the newest bench file may read.  ``sec656_gc``:
#: tombstone reclamation (``gc_enabled=True``) keeps at least 0.9 of the
#: deletion stream's throughput (``raw_s`` is the run with it off).
CEILINGS = {"sec656_gc.on_s/raw": 1 / 0.9}


def discover(root: Path) -> List[Tuple[int, Path]]:
    """Repo-root BENCH_PR*.json files, sorted by PR number."""
    found = []
    for path in root.glob("BENCH_PR*.json"):
        match = BENCH_PATTERN.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def time_leaves(doc: object, prefix: str = "") -> Iterator[Tuple[str, float]]:
    """Yield ``(dotted.path, value)`` for every time-like numeric leaf.

    Inside a dict that carries a positive numeric ``raw_s`` baseline,
    sibling timings are yielded as ratios to it (suffix ``/raw``) and the
    baseline itself is dropped — see the module docstring.
    """
    if isinstance(doc, dict):
        baseline = doc.get("raw_s")
        normalize = _is_number(baseline) and baseline > 0
        for key in sorted(doc):
            value = doc[key]
            if normalize and _is_number(value) and key.endswith(TIME_SUFFIXES):
                if key != "raw_s":
                    yield f"{prefix}{key}/raw", float(value) / float(baseline)
            else:
                yield from time_leaves(value, f"{prefix}{key}.")
    elif _is_number(doc):
        key = prefix.rstrip(".")
        leaf = key.rsplit(".", 1)[-1]
        if leaf.endswith(TIME_SUFFIXES):
            yield key, float(doc)


def load_leaves(path: Path) -> Dict[str, float]:
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"trajectory: cannot read {path.name}: {exc}", file=sys.stderr)
        return {}
    return dict(time_leaves(doc))


def compare(
    older: Dict[str, float], newer: Dict[str, float], threshold: float
) -> List[Tuple[str, float, float, float]]:
    """Shared time leaves regressed past ``threshold``; (key, old, new, delta)."""
    regressions = []
    for key in sorted(set(older) & set(newer)):
        before, after = older[key], newer[key]
        if before <= 0:
            continue
        delta = after / before - 1.0
        if delta > threshold:
            regressions.append((key, before, after, delta))
    return regressions


def over_ceiling(leaves: Dict[str, float]) -> List[Tuple[str, float, float]]:
    """Leaves above their :data:`CEILINGS` bar; (key, value, ceiling)."""
    return [
        (key, leaves[key], ceiling)
        for key, ceiling in sorted(CEILINGS.items())
        if leaves.get(key, 0.0) > ceiling
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed fractional slowdown between consecutive PRs (default 0.15)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but always exit 0",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="directory holding the BENCH_PR*.json files (default: repo root)",
    )
    args = parser.parse_args(argv)

    trajectory = discover(args.root)
    failed = False
    if trajectory:
        newest_pr, newest_path = trajectory[-1]
        for key, value, ceiling in over_ceiling(load_leaves(newest_path)):
            failed = True
            print(
                f"  OVER ITS BAR PR{newest_pr} {key}: {value:.4f} > {ceiling:.4f}",
                file=sys.stderr,
            )
    if len(trajectory) < 2:
        names = ", ".join(path.name for _, path in trajectory) or "none"
        print(f"trajectory: fewer than two bench files ({names}); nothing to compare")
    for (old_pr, old_path), (new_pr, new_path) in zip(trajectory, trajectory[1:]):
        older, newer = load_leaves(old_path), load_leaves(new_path)
        shared = sorted(set(older) & set(newer))
        regressions = compare(older, newer, args.threshold)
        print(
            f"trajectory: PR{old_pr} -> PR{new_pr}: "
            f"{len(shared)} shared timing leaves, {len(regressions)} regressed "
            f"(threshold {args.threshold:.0%})"
        )
        for key, before, after, delta in regressions:
            failed = True
            print(
                f"  REGRESSION {key}: {before:.4f} -> {after:.4f} ({delta:+.1%})",
                file=sys.stderr,
            )

    if failed and not args.warn_only:
        print("trajectory: FAILED", file=sys.stderr)
        return 1
    if failed:
        print("trajectory: regressions found (warn-only)")
    else:
        print("trajectory: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Whole-program loading: every module of the linted tree, parsed once.

Per-module rules (RL001–RL007, RL010) see one file at a time; protocol
conformance (RL011) needs *all* of them — a protocol and its
implementations live in different modules.  :func:`load_project` walks
the given paths (normally ``src/repro``), parses every ``.py`` file into
the same :class:`~repro.analysis.core.ModuleContext` the per-module
rules use, and wraps them in a :class:`ProjectContext`.  Modules are
keyed by dotted name and stored sorted, so every project-scope analysis
visits them in the same order on every run — a precondition for
byte-identical JSON reports.

Like the rest of the analyzer, nothing here imports the code under
analysis — the project is a set of syntax trees, never a set of modules.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.core import (
    ModuleContext,
    Violation,
    module_name_of,
    syntax_violation,
)


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path``, rooted at ``root``'s parent.

    ``src/repro/store/api.py`` under root ``src/repro`` becomes
    ``repro.store.api``; a file root, or a path outside the root, falls
    back to the name heuristic (:func:`~repro.analysis.core.module_name_of`).
    """
    if root.is_file():
        return module_name_of(path.as_posix())
    try:
        rel = path.resolve().relative_to(root.resolve().parent)
    except ValueError:
        return module_name_of(path.as_posix())
    parts = list(rel.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class ProjectContext:
    """Every parsed module of one source tree, in deterministic order."""

    def __init__(
        self,
        modules: Dict[str, ModuleContext],
        syntax_errors: List[Violation],
    ) -> None:
        #: dotted module name -> context, sorted by name (stable walks)
        self.modules: Dict[str, ModuleContext] = dict(
            sorted(modules.items(), key=lambda kv: kv[0])
        )
        #: RL000 findings for files that did not parse (their modules are
        #: absent from :attr:`modules`; project rules never see them)
        self.syntax_errors = list(syntax_errors)
        self._by_path: Dict[str, ModuleContext] = {
            ctx.path: ctx for ctx in self.modules.values()
        }

    def __iter__(self) -> Iterator[ModuleContext]:
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)

    def module(self, name: str) -> Optional[ModuleContext]:
        return self.modules.get(name)

    def module_for_path(self, path: str) -> Optional[ModuleContext]:
        return self._by_path.get(path)

    def suppressed(self, violation: Violation) -> bool:
        """Apply the owning module's ``# repro: ignore[...]`` comments."""
        ctx = self.module_for_path(violation.path)
        return ctx is not None and ctx.suppressed(violation)


def python_files(root: Path) -> List[Path]:
    """The ``.py`` files under a directory, or the file itself, sorted."""
    if root.is_dir():
        return sorted(root.rglob("*.py"))
    return [root] if root.suffix == ".py" and root.is_file() else []


def load_project(*paths) -> ProjectContext:
    """Parse every Python file under ``paths`` into a :class:`ProjectContext`.

    Each path is a directory or a ``.py`` file; one that holds no Python
    file raises ``ValueError``.  Unparsable files become RL000
    syntax-error violations.
    """
    modules: Dict[str, ModuleContext] = {}
    errors: List[Violation] = []
    seen: Set[Path] = set()
    for root in map(Path, paths):
        files = python_files(root)
        if not files:
            raise ValueError(f"no Python files under {root}")
        for path in files:
            if path in seen:
                continue
            seen.add(path)
            source = path.read_text(encoding="utf-8")
            try:
                tree = ast.parse(source, filename=path.as_posix())
            except SyntaxError as exc:
                errors.append(syntax_violation(path.as_posix(), exc))
                continue
            name = module_name_for(path, root)
            modules[name] = ModuleContext(path.as_posix(), source, tree, module=name)
    return ProjectContext(modules, errors)

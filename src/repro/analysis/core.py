"""The repro-lint driver: one parse, one walk, many rules.

``repro-lint`` is a project-specific static analyzer: every rule encodes an
invariant this codebase's correctness argument actually depends on
(cross-backend determinism, process-backend purity, lock discipline,
telemetry null objects, algorithm purity — see ``docs/internals.md``,
"Static analysis").  The framework deliberately mirrors how production
linters are built, scaled down:

* each file is parsed **once**; the resulting AST, a parent map, and the
  suppression index form a :class:`ModuleContext` shared by every rule;
* rules are small classes registered in :data:`RULES` via the
  :func:`rule` decorator; each yields :class:`Violation` objects from
  :meth:`Rule.check_module`;
* violations are suppressed by trailing ``# repro: ignore[RL001]``
  comments (same line) or file-wide ``# repro: ignore-file[RL001]``
  comments; every registered rule always runs;
* reporters (:mod:`repro.analysis.reporters`) render the final, sorted
  violation list as human text or stable JSON for CI artifacts.

The module is importable with zero third-party dependencies and never
imports the code it analyzes — analysis is purely syntactic.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

#: rule id reported for files that fail to parse at all
SYNTAX_RULE_ID = "RL000"

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*ignore\[([A-Z0-9,\s]+)\]")
_SUPPRESS_FILE_RE = re.compile(r"#\s*repro:\s*ignore-file\[([A-Z0-9,\s]+)\]")


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding, ordered for stable (diffable) reports."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }


class ModuleContext:
    """Everything rules need about one parsed module, computed once."""

    def __init__(
        self,
        path: str,
        source: str,
        tree: ast.Module,
        module: Optional[str] = None,
    ) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.module = module if module is not None else module_name_of(path)
        #: every node of the tree, in document order (the shared walk)
        self.nodes: List[ast.AST] = list(ast.walk(tree))
        self._parents: Dict[ast.AST, ast.AST] = {}
        for node in self.nodes:
            for child in ast.iter_child_nodes(node):
                self._parents[child] = node
        self.line_suppressions, self.file_suppressions = _parse_suppressions(source)

    # -- tree navigation ---------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The parent chain of ``node``, innermost first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def enclosing(self, node: ast.AST, *types: type) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, types):
                return ancestor
        return None

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        return self.enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        found = self.enclosing(node, ast.ClassDef)
        return found if isinstance(found, ast.ClassDef) else None

    # -- violation construction --------------------------------------------

    def violation(self, node: ast.AST, rule_id: str, message: str) -> Violation:
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            rule_id=rule_id,
            message=message,
        )

    def suppressed(self, violation: Violation) -> bool:
        if violation.rule_id in self.file_suppressions:
            return True
        return violation.rule_id in self.line_suppressions.get(violation.line, ())


class Rule:
    """Base class for one lint rule; subclasses register via :func:`rule`."""

    rule_id: str = "RL???"
    summary: str = ""

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        return f"{cls.rule_id}: {cls.summary}"


#: rule id -> rule class, populated by the :func:`rule` decorator
RULES: Dict[str, Type[Rule]] = {}


def rule(cls: Type[Rule]) -> Type[Rule]:
    """Register a :class:`Rule` subclass under its ``rule_id``."""
    if cls.rule_id in RULES or cls.rule_id in PROJECT_RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    RULES[cls.rule_id] = cls
    return cls


class ProjectRule:
    """Base class for cross-module rules; registered via :func:`project_rule`.

    A project rule sees the whole :class:`~repro.analysis.project.\
ProjectContext` at once instead of one module, so it can compare a
    class against a protocol defined three modules away.  Suppression
    comments still work: the driver routes each finding back through the
    owning module's ``# repro: ignore[...]`` index.
    """

    rule_id: str = "RL???"
    summary: str = ""

    def check_project(self, project) -> Iterator[Violation]:
        raise NotImplementedError

    @classmethod
    def describe(cls) -> str:
        return f"{cls.rule_id}: {cls.summary}"


#: rule id -> project-scope rule class (disjoint from :data:`RULES`)
PROJECT_RULES: Dict[str, Type[ProjectRule]] = {}


def project_rule(cls: Type[ProjectRule]) -> Type[ProjectRule]:
    """Register a :class:`ProjectRule` subclass under its ``rule_id``."""
    if cls.rule_id in RULES or cls.rule_id in PROJECT_RULES:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    PROJECT_RULES[cls.rule_id] = cls
    return cls


def module_name_of(path: str) -> str:
    """Best-effort dotted module name, rooted at the ``repro`` package."""
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _parse_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract per-line and file-wide ``# repro: ignore[...]`` comments."""
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "#" not in text:
            continue
        for match in _SUPPRESS_FILE_RE.finditer(text):
            per_file.update(_split_ids(match.group(1)))
        for match in _SUPPRESS_RE.finditer(text):
            per_line.setdefault(lineno, set()).update(_split_ids(match.group(1)))
    return per_line, per_file


def _split_ids(raw: str) -> List[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


# -- running the analysis ----------------------------------------------------


def _load_rule_modules() -> None:
    """Import the rule modules (they register themselves on import)."""
    import repro.analysis.project_rules  # noqa: F401  (registration side effect)
    import repro.analysis.rules  # noqa: F401  (registration side effect)


def active_rules() -> List[Rule]:
    """One instance of every registered per-module rule."""
    _load_rule_modules()
    return [cls() for cls in RULES.values()]


def active_project_rules() -> List[ProjectRule]:
    """One instance of every registered project-scope rule."""
    _load_rule_modules()
    return [cls() for cls in PROJECT_RULES.values()]


def syntax_violation(path: str, exc: SyntaxError) -> Violation:
    """The RL000 finding for a file that does not parse."""
    return Violation(
        path=path,
        line=exc.lineno or 0,
        col=(exc.offset or 1) - 1,
        rule_id=SYNTAX_RULE_ID,
        message=f"file does not parse: {exc.msg}",
    )


def lint_source(
    source: str, path: str, module: Optional[str] = None
) -> List[Violation]:
    """Run the module rules over one source string (the rule-fixture entry).

    Returns the sorted, unsuppressed violations; the project rules need
    a whole tree and only run under :func:`lint_project`.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [syntax_violation(path, exc)]
    ctx = ModuleContext(path, source, tree, module=module)
    out: Set[Violation] = set()
    for checker in active_rules():
        for violation in checker.check_module(ctx):
            if not ctx.suppressed(violation):
                out.add(violation)
    return sorted(out)


def lint_project(*paths: str) -> Tuple[List[Violation], int]:
    """Lint every Python file under ``paths``: module and project rules.

    Returns (violations, files checked).  A path that holds no Python
    file raises ``ValueError``, so a mistyped path cannot pass as a
    clean run.
    """
    # local import: project.py imports this module at load time
    from repro.analysis.project import load_project

    project = load_project(*paths)
    out: Set[Violation] = set(project.syntax_errors)
    module_checkers = active_rules()
    for ctx in project:
        for checker in module_checkers:
            for violation in checker.check_module(ctx):
                if not ctx.suppressed(violation):
                    out.add(violation)
    for project_checker in active_project_rules():
        for violation in project_checker.check_project(project):
            if not project.suppressed(violation):
                out.add(violation)
    return sorted(out), len(project) + len(project.syntax_errors)


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


def base_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a name/attribute expression."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def chain_root(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` of an attribute/subscript/call chain."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript, ast.Call)):
        current = current.func if isinstance(current, ast.Call) else current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def assignment_targets(node: ast.AST) -> Iterable[ast.expr]:
    """Targets of Assign/AugAssign/AnnAssign, tuple targets flattened."""
    if isinstance(node, ast.Assign):
        targets: List[ast.expr] = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        targets = [node.target]
    else:
        return []
    flat: List[ast.expr] = []
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            flat.extend(target.elts)
        else:
            flat.append(target)
    return flat

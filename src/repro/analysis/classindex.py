"""A purely syntactic index of the project's classes.

Protocol conformance (RL011) compares a class with the abstract methods
it inherits from a protocol defined modules away.  This module builds,
from the parsed :class:`~repro.analysis.project.ProjectContext` alone,
what that comparison needs:

* every top-level class under its qualified name, ``module.Class``,
  with its directly defined methods and, per method, whether it is
  abstract, a property or a static method;
* each class's project bases, resolved through the module's imports
  (``from repro.store.api import GraphStore as Proto`` still names
  ``repro.store.api.GraphStore``), and the MRO-style ancestry they give.

A base that does not resolve to a project class (``abc.ABC``, a name
re-exported through a package ``__init__``) is left out, so the index
under-approximates instead of inventing ancestry.  Everything iterates
in sorted order, so reports derived from it are deterministic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.analysis.core import ModuleContext, base_name, dotted_name
from repro.analysis.project import ProjectContext

_ABSTRACT_DECORATORS = {"abstractmethod", "abstractproperty"}
_PROPERTY_DECORATORS = {"property", "cached_property", "abstractproperty", "setter"}
_STATIC_DECORATORS = {"staticmethod"}


@dataclass
class MethodInfo:
    """One method defined directly in a project class."""

    qualname: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    class_qual: str
    is_abstract: bool = False
    is_property: bool = False
    is_static: bool = False

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


@dataclass
class ClassInfo:
    """One project class: its resolved bases and direct methods."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: resolved project-class base qualnames, declaration order
    base_quals: List[str] = field(default_factory=list)
    #: direct method definitions, name -> MethodInfo
    methods: Dict[str, MethodInfo] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[1]


def _decorator_names(node: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = base_name(target)
        if name:
            names.add(name)
    return names


def _module_imports(ctx: ModuleContext) -> Dict[str, str]:
    """Local name -> canonical dotted target for every import in a module."""
    imports: Dict[str, str] = {}
    package = ctx.module.rsplit(".", 1)[0] if "." in ctx.module else ctx.module
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    imports[head] = head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = ctx.module.split(".")
                # one level ascends to the containing package; each extra
                # level drops another component
                anchor = anchor[: max(len(anchor) - node.level, 0)]
                base = ".".join(anchor + ([node.module] if node.module else []))
            elif not base:
                base = package
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = (
                    f"{base}.{alias.name}" if base else alias.name
                )
    return imports


class ClassIndex:
    """Every top-level class of one project, with bases and method facts."""

    def __init__(self, project: ProjectContext) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self._mro_cache: Dict[str, List[str]] = {}
        imports: Dict[str, Dict[str, str]] = {}
        for name, ctx in project.modules.items():
            imports[name] = _module_imports(ctx)
            for node in ctx.tree.body:
                if isinstance(node, ast.ClassDef):
                    self._collect_class(name, node)
        for qual in sorted(self.classes):
            info = self.classes[qual]
            for base in info.node.bases:
                expr = base.value if isinstance(base, ast.Subscript) else base
                resolved = self._resolve(imports[info.module], info.module, expr)
                if resolved is not None:
                    info.base_quals.append(resolved)

    def _collect_class(self, module: str, node: ast.ClassDef) -> None:
        qual = f"{module}.{node.name}"
        info = ClassInfo(qualname=qual, module=module, node=node)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                decorators = _decorator_names(stmt)
                # first definition wins (@prop.setter re-defines the name)
                info.methods.setdefault(
                    stmt.name,
                    MethodInfo(
                        qualname=f"{qual}.{stmt.name}",
                        node=stmt,
                        class_qual=qual,
                        is_abstract=bool(decorators & _ABSTRACT_DECORATORS),
                        is_property=bool(decorators & _PROPERTY_DECORATORS),
                        is_static=bool(decorators & _STATIC_DECORATORS),
                    ),
                )
        self.classes[qual] = info

    def _resolve(
        self, imports: Dict[str, str], module: str, expr: ast.AST
    ) -> Optional[str]:
        """The project class a (possibly dotted) base expression names."""
        name = dotted_name(expr)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head in imports:
            resolved = imports[head] + ("." + rest if rest else "")
        elif not rest:
            resolved = f"{module}.{name}"
        else:
            resolved = name
        return resolved if resolved in self.classes else None

    def mro(self, qual: str) -> List[str]:
        """Linearized ancestry (self first), DFS left-to-right, deduped."""
        cached = self._mro_cache.get(qual)
        if cached is not None:
            return cached
        out: List[str] = []
        seen: Set[str] = set()

        def visit(q: str) -> None:
            if q in seen or q not in self.classes:
                return
            seen.add(q)
            out.append(q)
            for b in self.classes[q].base_quals:
                visit(b)

        visit(qual)
        self._mro_cache[qual] = out
        return out

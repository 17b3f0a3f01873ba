"""The project-scope repro-lint rule, RL011.

A project rule sees the whole tree at once (via
:class:`~repro.analysis.project.ProjectContext` and the
:class:`~repro.analysis.classindex.ClassIndex` built from it).  The one
invariant that needs it is protocol conformance: an implementation and
the protocol it must match live in different modules.

==========  ================================================================
RL011       Protocol conformance: every GraphStore / ExecutionBackend /
            MiningAlgorithm implementation covers the full abstract
            surface with matching positional arity and keyword names —
            mv/sharded/remote/net drift is caught at lint time instead
            of at the 4-kind equivalence matrix (paper §4.1).
==========  ================================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.classindex import ClassIndex, MethodInfo
from repro.analysis.core import ProjectRule, Violation, project_rule
from repro.analysis.project import ProjectContext

# -- RL011: protocol conformance ---------------------------------------------


def _param_names(args: ast.arguments, is_static: bool) -> Tuple[List[str], List[str], Dict[str, bool], bool, bool]:
    """(positional, kwonly, has_default map, has *args, has **kwargs)."""
    positional = [a.arg for a in [*args.posonlyargs, *args.args]]
    if not is_static and positional:
        positional = positional[1:]  # drop self/cls
    kwonly = [a.arg for a in args.kwonlyargs]
    defaults: Dict[str, bool] = {name: False for name in positional + kwonly}
    with_default = positional[len(positional) - len(args.defaults):] if args.defaults else []
    for name in with_default:
        defaults[name] = True
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            defaults[arg.arg] = True
    return positional, kwonly, defaults, args.vararg is not None, args.kwarg is not None


@project_rule
class ProtocolConformanceRule(ProjectRule):
    """RL011: implementations match their protocol's surface and signatures."""

    rule_id = "RL011"
    summary = (
        "GraphStore/ExecutionBackend/etc. implementations must cover "
        "every abstract method with matching positional order, arity, "
        "and keyword names"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        index = ClassIndex(project)
        for qual in sorted(index.classes):
            info = index.classes[qual]
            ctx = project.module(info.module)
            if ctx is None:
                continue
            declares_abstract = any(
                m.is_abstract for m in info.methods.values()
            )
            ancestry = index.mro(qual)[1:]
            if not ancestry:
                continue
            # completeness: a concrete class must implement every
            # inherited abstract method (intermediates that declare their
            # own abstracts are still-abstract by design and skipped)
            if not declares_abstract:
                yield from self._check_completeness(ctx, index, qual, info)
            # signature conformance, reported at the class that defines
            # the override (subclasses inheriting it are not re-flagged)
            for name in sorted(info.methods):
                impl = info.methods[name]
                if impl.is_abstract:
                    continue
                protocol = self._nearest_abstract(index, ancestry, name)
                if protocol is not None:
                    yield from self._compare(ctx, qual, impl, protocol)

    def _check_completeness(
        self, ctx, index: ClassIndex, qual: str, info
    ) -> Iterator[Violation]:
        abstract_names: Set[str] = set()
        for ancestor in index.mro(qual)[1:]:
            for name, method in index.classes[ancestor].methods.items():
                if method.is_abstract:
                    abstract_names.add(name)
        missing: List[Tuple[str, str]] = []
        for name in sorted(abstract_names):
            nearest = self._nearest_definition(index, index.mro(qual), name)
            if nearest is not None and nearest.is_abstract:
                missing.append((name, nearest.class_qual or ""))
        for name, owner in missing:
            yield ctx.violation(
                info.node,
                self.rule_id,
                f"{info.name} registers as a concrete implementation but "
                f"leaves abstract method {owner}.{name}() unimplemented; "
                "instantiation would raise TypeError and the protocol "
                "surface is no longer swappable",
            )

    @staticmethod
    def _nearest_definition(
        index: ClassIndex, mro: Sequence[str], name: str
    ) -> Optional[MethodInfo]:
        for ancestor in mro:
            method = index.classes[ancestor].methods.get(name)
            if method is not None:
                return method
        return None

    @staticmethod
    def _nearest_abstract(
        index: ClassIndex, ancestry: Sequence[str], name: str
    ) -> Optional[MethodInfo]:
        """The protocol declaration an override answers to: the nearest
        abstract ``name`` in the ancestry, even below a concrete one."""
        for ancestor in ancestry:
            method = index.classes[ancestor].methods.get(name)
            if method is not None and method.is_abstract:
                return method
        return None

    def _compare(
        self, ctx, qual: str, impl: MethodInfo, protocol: MethodInfo
    ) -> Iterator[Violation]:
        where = f"{qual}.{impl.name}"
        if impl.is_property != protocol.is_property:
            expected = "a property" if protocol.is_property else "a method"
            actual = "a property" if impl.is_property else "a method"
            yield ctx.violation(
                impl.node,
                self.rule_id,
                f"{where} is {actual} but the protocol "
                f"({protocol.qualname}) declares {expected}; callers using "
                "the protocol form break on this implementation",
            )
            return
        if impl.is_property:
            return
        a_pos, a_kw, a_def, a_var, a_kwargs = _param_names(
            protocol.node.args, protocol.is_static  # type: ignore[attr-defined]
        )
        i_pos, i_kw, i_def, i_var, i_kwargs = _param_names(
            impl.node.args, impl.is_static  # type: ignore[attr-defined]
        )
        # positional prefix: same names, same order (keyword call sites
        # written against the protocol must keep working)
        prefix = i_pos[: len(a_pos)]
        if prefix != a_pos and not (i_var and prefix == a_pos[: len(prefix)]):
            yield ctx.violation(
                impl.node,
                self.rule_id,
                f"{where} positional parameters ({', '.join(i_pos) or 'none'}) "
                f"drift from the protocol's ({', '.join(a_pos) or 'none'}) "
                f"declared by {protocol.qualname}; callers passing by "
                "keyword through the protocol would break",
            )
            return
        for name in a_pos:
            if a_def.get(name) and name in i_def and not i_def[name]:
                yield ctx.violation(
                    impl.node,
                    self.rule_id,
                    f"{where} makes parameter '{name}' required; the "
                    f"protocol ({protocol.qualname}) declares it optional, "
                    "so protocol-level callers may omit it",
                )
        for extra in i_pos[len(a_pos):]:
            if not i_def.get(extra, False):
                yield ctx.violation(
                    impl.node,
                    self.rule_id,
                    f"{where} adds required positional parameter '{extra}' "
                    f"beyond the protocol ({protocol.qualname}); "
                    "protocol-level callers cannot supply it — give it a "
                    "default",
                )
        covered = set(i_pos) | set(i_kw)
        for name in a_kw:
            if name not in covered and not i_kwargs:
                yield ctx.violation(
                    impl.node,
                    self.rule_id,
                    f"{where} is missing keyword parameter '{name}' from "
                    f"the protocol ({protocol.qualname})",
                )
        for extra in i_kw:
            if extra not in set(a_kw) | set(a_pos) and not i_def.get(extra, False):
                yield ctx.violation(
                    impl.node,
                    self.rule_id,
                    f"{where} adds required keyword-only parameter "
                    f"'{extra}' beyond the protocol ({protocol.qualname}); "
                    "give it a default",
                )

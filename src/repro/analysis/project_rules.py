"""The project-scope repro-lint rules, RL008–RL011.

These rules see the whole tree at once (via
:class:`~repro.analysis.project.ProjectContext`, the shared call graph,
and the dataflow fixpoints) and encode the invariants that *span*
modules — exactly the ones the per-module rules RL001–RL007 cannot
check:

==========  ================================================================
RL008       Interprocedural determinism taint: a wall-clock/RNG value
            returned from a helper must not reach counters, result
            streams (``emit``/``publish``), or wire payloads — closes
            the laundering hole in RL001 (paper §4.5).
RL009       Lock-order cycles: the acquired-while-held graph across
            Tracer/ConnectionPool/StoreServer et al. must be acyclic —
            static deadlock detection for the store server's
            connection threads and the RPC pool (paper §5.3).
RL010       Exception-taxonomy discipline: handlers in ``repro.net``
            must re-raise through the NetError taxonomy; nothing may
            swallow ``ApplicationError``; bare ``except:`` is banned
            project-wide outside tests (PR 7's retry contract —
            application errors are never retried, so eating one turns
            a permanent failure into silence).
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

from repro.analysis.callgraph import CallGraph, FunctionInfo, build_callgraph
from repro.analysis.core import (
    ProjectRule,
    Violation,
    base_name,
    project_rule,
)
from repro.analysis.dataflow import (
    DIRECT,
    MONO,
    build_lock_analysis,
    build_return_taint,
)
from repro.analysis.project import ProjectContext
from repro.analysis.rules import METRICS_COUNTER_FIELDS

# -- RL008: interprocedural determinism taint --------------------------------

#: counter-mutation methods (the same sink RL001 guards intra-function)
COUNTER_METHODS = {"inc", "set_total"}

#: result-stream sinks: whatever reaches these is part of the
#: deterministic output contract
STREAM_METHODS = {"emit", "publish"}

#: wire-payload sink: arguments become bytes on the wire
PAYLOAD_BUILDERS = {"encode_payload"}


def _describe_taint(kind: str, source: str) -> str:
    origin = "a call" if source == DIRECT else f"{source}()"
    return f"{kind} value from {origin}"


@project_rule
class InterproceduralDeterminismRule(ProjectRule):
    """RL008: no clock/RNG laundering through helpers into sinks."""

    rule_id = "RL008"
    summary = (
        "clock/RNG values returned by helpers must not reach counters, "
        "emit/publish streams, or wire payloads (interprocedural RL001)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        graph = build_callgraph(project)
        taint = build_return_taint(project)
        for qual in sorted(graph.functions):
            fn = graph.functions[qual]
            ctx = project.module(fn.module)
            if ctx is None:
                continue
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    yield from self._check_call(ctx, taint, qual, node)
                elif isinstance(node, (ast.Assign, ast.AugAssign)):
                    yield from self._check_counter_field(ctx, taint, qual, node)

    def _feeds(self, call: ast.Call) -> List[ast.AST]:
        return list(call.args) + [kw.value for kw in call.keywords]

    def _check_call(
        self, ctx, taint, qual: str, call: ast.Call
    ) -> Iterator[Violation]:
        method = base_name(call.func)
        if method in COUNTER_METHODS and isinstance(call.func, ast.Attribute):
            for arg in self._feeds(call):
                kinds = taint.expr_taint(qual, arg)
                for kind in sorted(kinds):
                    yield ctx.violation(
                        call,
                        self.rule_id,
                        f"{_describe_taint(kind, kinds[kind])} feeds counter "
                        f".{method}() in {qual}; counters are part of the "
                        "cross-backend determinism contract even when the "
                        "clock hides behind a helper — put durations in "
                        "histograms or gauges",
                    )
                    break  # one finding per argument
        elif method in STREAM_METHODS and isinstance(call.func, ast.Attribute):
            yield from self._check_output_sink(
                ctx, taint, qual, call, f".{method}()", "result stream"
            )
        elif method in PAYLOAD_BUILDERS:
            yield from self._check_output_sink(
                ctx, taint, qual, call, f"{method}()", "wire payload"
            )

    def _check_output_sink(
        self, ctx, taint, qual: str, call: ast.Call, sink: str, what: str
    ) -> Iterator[Violation]:
        for arg in self._feeds(call):
            kinds = taint.expr_taint(qual, arg)
            # monotonic durations are legitimate payload/telemetry data;
            # only wall clocks and RNG make outputs nondeterministic
            for kind in sorted(k for k in kinds if k != MONO):
                yield ctx.violation(
                    call,
                    self.rule_id,
                    f"{_describe_taint(kind, kinds[kind])} flows into "
                    f"{sink} in {qual}; {what}s must be identical across "
                    "runs and backends — derive the value from graph "
                    "state or a seeded random.Random instead",
                )
                break

    def _check_counter_field(
        self, ctx, taint, qual: str, node
    ) -> Iterator[Violation]:
        if node.value is None:
            return
        kinds = taint.expr_taint(qual, node.value)
        if not kinds:
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in METRICS_COUNTER_FIELDS
            ):
                kind = sorted(kinds)[0]
                yield ctx.violation(
                    node,
                    self.rule_id,
                    f"{_describe_taint(kind, kinds[kind])} written to "
                    f"Metrics counter field '{target.attr}' in {qual}; "
                    "counter fields must be identical across backends even "
                    "when the clock hides behind a helper",
                )


# -- RL009: lock-order cycles ------------------------------------------------


@project_rule
class LockOrderRule(ProjectRule):
    """RL009: the project-wide acquired-while-held graph must be acyclic."""

    rule_id = "RL009"
    summary = (
        "lock-order cycle in the acquired-while-held graph (static "
        "deadlock detection across Tracer/ConnectionPool/StoreServer)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        locks = build_lock_analysis(project)
        for path, anchor in locks.cycles():
            cycle = " -> ".join(path)
            via = (
                "direct nesting"
                if anchor.via == "with"
                else f"a call into {anchor.via}()"
            )
            yield Violation(
                path=anchor.path,
                line=anchor.line,
                col=anchor.col,
                rule_id=self.rule_id,
                message=(
                    f"lock-order cycle {cycle}: here {anchor.src} is held "
                    f"while {via} may acquire {anchor.dst}; two threads "
                    "taking these locks in opposite order deadlock — "
                    "impose a single acquisition order or drop work "
                    "outside the lock"
                ),
            )


# -- RL010: exception-taxonomy discipline ------------------------------------

#: catching one of these without re-raising swallows ApplicationError
#: (every ApplicationError IS-A NetError IS-A Exception)
BROAD_TYPES = {"Exception", "BaseException", "NetError", "ApplicationError"}

#: raw transport-ish exceptions: a repro.net handler may clean up and
#: bail, but any *handling* must translate into the NetError taxonomy so
#: retry classification (TransportError: retryable, ProtocolError: fatal,
#: ApplicationError: never retried) stays decidable for callers
RAW_TRANSPORT_TYPES = {
    "OSError",
    "IOError",
    "ConnectionError",
    "ConnectionResetError",
    "ConnectionAbortedError",
    "ConnectionRefusedError",
    "BrokenPipeError",
    "InterruptedError",
    "TimeoutError",
    "timeout",  # socket.timeout
    "UnicodeDecodeError",
    "JSONDecodeError",
    "error",  # struct.error
}


def _handler_type_names(handler: ast.ExceptHandler) -> List[str]:
    if handler.type is None:
        return []
    exprs = (
        list(handler.type.elts)
        if isinstance(handler.type, ast.Tuple)
        else [handler.type]
    )
    names = []
    for expr in exprs:
        name = base_name(expr)
        if name is not None:
            names.append(name)
    return names


def _contains_raise(handler: ast.ExceptHandler) -> bool:
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
    return False


def _is_pure_cleanup(handler: ast.ExceptHandler) -> bool:
    """True when the body only unwinds: pass/continue/break/bare return."""
    for stmt in handler.body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Return) and stmt.value is None:
            continue
        return False
    return True


def _is_test_module(module: str) -> bool:
    return any("test" in part for part in module.split("."))


@project_rule
class ExceptionTaxonomyRule(ProjectRule):
    """RL010: repro.net excepts re-raise; ApplicationError is never eaten."""

    rule_id = "RL010"
    summary = (
        "bare except banned project-wide; repro.net handlers must "
        "re-raise through the NetError taxonomy and never swallow "
        "ApplicationError"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        for name in sorted(project.modules):
            ctx = project.modules[name]
            in_net = name.startswith("repro.net")
            for node in ctx.nodes:
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if node.type is None:
                    if not _is_test_module(name):
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            "bare 'except:' catches SystemExit and "
                            "KeyboardInterrupt and hides the failure class; "
                            "name the exceptions this handler can actually "
                            "recover from",
                        )
                    continue
                if not in_net or _contains_raise(node):
                    continue
                names = _handler_type_names(node)
                broad = sorted(set(names) & BROAD_TYPES)
                if broad:
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"handler catches {', '.join(broad)} without "
                        "re-raising; this swallows ApplicationError, which "
                        "the taxonomy says is never retried and never "
                        "silenced — catch the narrow NetError subtype or "
                        "re-raise",
                    )
                    continue
                raw = sorted(set(names) & RAW_TRANSPORT_TYPES)
                if raw and not _is_pure_cleanup(node):
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"handler catches raw {', '.join(raw)} and handles "
                        "it in place; repro.net must translate transport "
                        "failures into the NetError taxonomy (raise "
                        "TransportError/ProtocolError ... from exc) so "
                        "retry classification stays decidable",
                    )


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
        graph = build_callgraph(project)
        for qual in sorted(graph.classes):
            info = graph.classes[qual]
            ctx = project.module(info.module)
            if ctx is None:
                continue
            declares_abstract = any(
                m.is_abstract for m in info.methods.values()
            )
            ancestry = graph.mro(qual)[1:]
            if not ancestry:
                continue
            # completeness: a concrete class must implement every
            # inherited abstract method (intermediates that declare their
            # own abstracts are still-abstract by design and skipped)
            if not declares_abstract:
                yield from self._check_completeness(ctx, graph, qual, info)
            # signature conformance, reported at the class that defines
            # the override (subclasses inheriting it are not re-flagged)
            for name in sorted(info.methods):
                impl = info.methods[name]
                if impl.is_abstract:
                    continue
                protocol = self._nearest_abstract(graph, ancestry, name)
                if protocol is not None:
                    yield from self._compare(ctx, qual, impl, protocol)

    def _check_completeness(
        self, ctx, graph: CallGraph, qual: str, info
    ) -> Iterator[Violation]:
        abstract_names: Set[str] = set()
        for ancestor in graph.mro(qual)[1:]:
            for name, method in graph.classes[ancestor].methods.items():
                if method.is_abstract:
                    abstract_names.add(name)
        missing: List[Tuple[str, str]] = []
        for name in sorted(abstract_names):
            nearest = self._nearest_definition(graph, graph.mro(qual), name)
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
        graph: CallGraph, mro: Sequence[str], name: str
    ) -> Optional[FunctionInfo]:
        for ancestor in mro:
            method = graph.classes[ancestor].methods.get(name)
            if method is not None:
                return method
        return None

    def _nearest_abstract(
        self, graph: CallGraph, ancestry: Sequence[str], name: str
    ) -> Optional[FunctionInfo]:
        found = self._nearest_definition(graph, ancestry, name)
        if found is not None and found.is_abstract:
            return found
        return None

    def _compare(
        self, ctx, qual: str, impl: FunctionInfo, protocol: FunctionInfo
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

"""The per-module repro-lint rules, RL001–RL007 and RL010.

Each rule encodes an invariant of this reproduction that example-based
tests can only spot-check (the paper sections cited are the ones whose
correctness argument the invariant carries — see ``docs/internals.md``,
"Static analysis", for the prose version):

==========  ================================================================
RL001       Determinism: no wall-clock or process-global RNG feeding
            counters or result streams, nor a clock reading laundered
            through a helper of the same module into a counter, whether
            the helper returns the reading or writes its argument to one
            (paper §4.5; PR 2's cross-backend identical-counter-totals
            contract).
RL002       Process-backend purity: a ``Process(target=...)`` target must be
            a module-level function that does not mutate module globals
            (paper §5 worker model).
RL003       Thread-safety: classes that own a lock must hold it for every
            post-``__init__`` attribute write, and never take a held
            non-reentrant ``Lock`` again, by nesting or through their own
            ``self.m()`` calls (paper §5.3 queue contract).
RL004       Span discipline: ``Span``/``NullSpan``/``SpanRecord`` are only
            constructed in ``repro.telemetry.trace``, by ``Tracer``.
RL005       Algorithm purity: ``filter``/``match``/``process`` of a
            :class:`MiningAlgorithm` must not do I/O or mutate their
            arguments or ``self`` (paper §4.3 DETECT_CHANGES evaluates
            filter on pre- and post-update versions of one subgraph).
RL006       Store encapsulation: store-private attributes (``_records``
            et al.) are only accessed inside ``repro.store``; consumers
            speak the :class:`GraphStore` protocol, which is what keeps
            the mv/sharded/remote kinds swappable (paper §4.1).
RL007       Network encapsulation: raw sockets (``socket``/``selectors``)
            are only touched inside ``repro.net``; everything else speaks
            the framed RPC layer, which is where deadlines, retries, and
            the exactly-once write discipline live (PR 7).
RL010       Exception-taxonomy discipline: handlers in ``repro.net``
            must re-raise through the NetError taxonomy; nothing may
            swallow ``ApplicationError``; bare ``except:`` is banned
            project-wide outside tests (PR 7's retry contract —
            application errors are never retried, so eating one turns
            a permanent failure into silence).
==========  ================================================================
"""

from __future__ import annotations

import ast
import itertools
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.core import (
    ModuleContext,
    Rule,
    Violation,
    assignment_targets,
    base_name,
    chain_root,
    dotted_name,
    rule,
)

# -- RL001: determinism ------------------------------------------------------

#: non-monotonic clocks: banned outright (results would differ across runs)
WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "time.strftime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "date.today",
    "datetime.date.today",
}

#: monotonic clocks: fine for timing, but must not feed counters
MONOTONIC_CLOCK_CALLS = {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.thread_time",
}

#: ``random`` module attributes that are *not* the seeded-instance escape
RANDOM_SAFE_ATTRS = {"Random", "SystemRandom"}

#: counter instrument methods whose arguments must not carry a clock reading
COUNTER_METHODS = {"inc", "set_total"}

#: integer Metrics fields covered by the cross-backend determinism contract
METRICS_COUNTER_FIELDS = {
    "filter_calls",
    "match_calls",
    "can_expand_calls",
    "expansions",
    "emits",
    "explore_calls",
}


#: modules whose imports are tracked for alias resolution
CLOCK_RNG_MODULES = {"time", "random", "datetime"}


def _import_aliases(ctx: ModuleContext) -> Dict[str, str]:
    """Map local names to canonical dotted prefixes for clock/RNG modules.

    ``import time as _t`` maps ``_t`` -> ``time``; ``from time import time
    as now`` maps ``now`` -> ``time.time`` — so renaming an import cannot
    hide a banned call from the dotted-name checks below.
    """
    aliases: Dict[str, str] = {}
    for node in ctx.nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in CLOCK_RNG_MODULES and alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module in CLOCK_RNG_MODULES:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
    return aliases


def _resolve_name(name: Optional[str], aliases: Dict[str, str]) -> Optional[str]:
    if name is None:
        return None
    head, dot, rest = name.partition(".")
    if head in aliases:
        return aliases[head] + (dot + rest)
    return name


def _params(func: ast.AST) -> List[str]:
    """``func``'s parameter names in call order, less a method's
    ``self``/``cls`` (a ``self.helper(x)`` call passes ``x`` first)."""
    args = func.args  # type: ignore[attr-defined]
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return names[1:] if names and names[0] in {"self", "cls"} else names


def _local_callee(func: ast.AST) -> Optional[str]:
    """The name a ``helper()`` or ``self.helper()`` call looks up in its module."""
    if isinstance(func, ast.Name):
        return func.id
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in {"self", "cls"}
    ):
        return func.attr
    return None


@rule
class DeterminismRule(Rule):
    """RL001: keep counters and result streams free of clocks and RNG."""

    rule_id = "RL001"
    summary = (
        "no wall clocks or process-global RNG where results or counters "
        "must be deterministic"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        self._aliases = _import_aliases(ctx)
        functions = [
            node
            for node in ctx.nodes
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        bodies = {func: self._walk_body(func) for func in functions}
        self._find_clock_helpers(bodies)
        self._find_counter_sinks(bodies)
        # outer functions come first in the walk: a nested def starts from
        # the names its enclosing function tainted (it may close over them)
        tainted: Dict[ast.AST, Set[str]] = {}
        for func in functions:
            outer = tainted.get(ctx.enclosing_function(func), set())
            tainted[func] = self._taint(bodies[func], outer)
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                yield from self._check_call(ctx, node)
            elif isinstance(node, ast.For):
                yield from self._check_iteration(ctx, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iteration(ctx, generator.iter)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_local_import(ctx, node)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_counter_feeds(ctx, bodies[node], tainted[node])

    def _walk_body(self, func: ast.AST) -> "_Body":
        """Gather ``func``'s body in one walk that skips nested defs."""
        body = _Body()
        for stmt in func.body:  # type: ignore[attr-defined]
            self._gather(stmt, body)
        return body

    def _gather(self, node: ast.AST, body: "_Body") -> "_Reads":
        """What ``node`` reads; records assignments, returns and counter
        feeds into ``body`` on the way up."""
        reads = _Reads()
        value = None
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.Return)):
            value = node.value
        fed = None
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in COUNTER_METHODS
        ):
            fed = _Reads()  # what the arguments read, not the counter
        value_reads = None
        arg_reads: Dict[ast.AST, _Reads] = {}
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # a body of its own
            child_reads = self._gather(child, body)
            reads.absorb(child_reads)
            arg_reads[child] = child_reads
            if child is value:
                value_reads = child_reads
            elif fed is not None and child is not node.func:
                fed.absorb(child_reads)
        if isinstance(node, ast.Call):
            name = _resolve_name(dotted_name(node.func), self._aliases)
            if name in WALL_CLOCK_CALLS or name in MONOTONIC_CLOCK_CALLS:
                reads.clock = True
            callee = _local_callee(node.func)
            if callee is not None:
                reads.callees.add(callee)
                positional = itertools.takewhile(  # unknown after a *args
                    lambda arg: not isinstance(arg, ast.Starred), node.args
                )
                args = [(i, arg_reads[arg]) for i, arg in enumerate(positional)]
                args += [(kw.arg, arg_reads[kw]) for kw in node.keywords]
                body.calls.append((node, callee, args))
            if fed is not None:
                body.feeds.append((node, fed))
        elif isinstance(node, ast.Name):
            reads.names.add(node.id)
        elif value_reads is not None:
            if isinstance(node, ast.Return):
                body.returns.append(value_reads)
            else:
                body.assigns.append((node, value_reads))
        return reads

    def _reads_clock(self, reads: "_Reads", tainted: Set[str]) -> bool:
        """Whether ``reads`` takes in a clock, directly or through a module helper."""
        return (
            reads.clock
            or not reads.callees.isdisjoint(self._clock_helpers)
            or not reads.names.isdisjoint(tainted)
        )

    def _taint(self, body: "_Body", tainted: Set[str], clock: bool = True) -> Set[str]:
        """The local names that hold a clock reading, starting from
        ``tainted``; with ``clock=False``, those that hold a value of a
        name in ``tainted`` only."""
        tainted = set(tainted)
        changed = True
        while changed:  # a name assigned from a tainted name is tainted
            changed = False
            for node, reads in body.assigns:
                if reads.names.isdisjoint(tainted) and not (
                    clock and self._reads_clock(reads, tainted)
                ):
                    continue
                for target in assignment_targets(node):
                    if isinstance(target, ast.Name) and target.id not in tainted:
                        tainted.add(target.id)
                        changed = True
        return tainted

    def _find_clock_helpers(self, bodies: Dict[ast.AST, "_Body"]) -> None:
        """Collect the names of this module's functions that return a clock reading.

        A helper that returns ``time.perf_counter() - start`` launders a
        monotonic reading, which is legal at its origin; its callers in
        the same module are then held to the counter-feed check below.
        """
        self._clock_helpers: Set[str] = set()
        changed = True
        while changed:  # a helper of a helper is a helper
            changed = False
            for func, body in bodies.items():
                if func.name in self._clock_helpers or not body.returns:
                    continue
                tainted = self._taint(body, set())
                if any(self._reads_clock(reads, tainted) for reads in body.returns):
                    self._clock_helpers.add(func.name)
                    changed = True

    def _find_counter_sinks(self, bodies: Dict[ast.AST, "_Body"]) -> None:
        """Map each of this module's functions that writes a parameter to a
        counter, itself or through another such function, to the
        parameter's name and position: ``def _count(r, v):
        r.counter("x").set_total(v)`` maps ``_count`` to ``{"v", 1}``."""
        self._counter_sinks: Dict[str, Set[object]] = {}
        changed = True
        while changed:  # a helper that feeds a sink is a sink
            changed = False
            for func, body in bodies.items():
                fed = [reads for _, reads in body.feeds]
                for _, callee, args in body.calls:
                    fed += self._sunk(callee, args)
                sunk = self._counter_sinks.setdefault(func.name, set())
                for i, param in enumerate(_params(func)):
                    holds = self._taint(body, {param}, clock=False)
                    if param in sunk or all(r.names.isdisjoint(holds) for r in fed):
                        continue
                    sunk.update((param, i))
                    changed = True

    def _sunk(self, callee: str, args: List[tuple]) -> List["_Reads"]:
        """What the arguments a call hands to ``callee``'s counter-writing
        parameters read."""
        sunk = self._counter_sinks.get(callee, ())
        return [reads for key, reads in args if key in sunk]

    def _check_call(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Violation]:
        name = _resolve_name(dotted_name(node.func), self._aliases)
        if name in WALL_CLOCK_CALLS:
            yield ctx.violation(
                node,
                self.rule_id,
                f"non-monotonic wall clock {name}() is banned: time only via "
                "time.perf_counter/time.monotonic into an OperationTimer, "
                "gauges, or histograms",
            )
        elif (
            name is not None
            and name.startswith("random.")
            and name.count(".") == 1
            and name.split(".")[1] not in RANDOM_SAFE_ATTRS
        ):
            yield ctx.violation(
                node,
                self.rule_id,
                f"{name}() uses the process-global RNG; results would differ "
                "across runs and backends — use a seeded random.Random(seed) "
                "instance",
            )

    def _check_iteration(self, ctx: ModuleContext, iter_node: ast.AST) -> Iterator[Violation]:
        is_set_expr = isinstance(iter_node, (ast.Set, ast.SetComp))
        is_set_call = (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id in {"set", "frozenset"}
        )
        if is_set_expr or is_set_call:
            yield ctx.violation(
                iter_node,
                self.rule_id,
                "iterating a set is order-nondeterministic; wrap it in "
                "sorted(...) before anything order-sensitive consumes it",
            )

    def _check_local_import(
        self, ctx: ModuleContext, node: ast.AST
    ) -> Iterator[Violation]:
        if ctx.enclosing_function(node) is None:
            return
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            modules = [node.module or ""]
        for module in modules:
            if module in {"time", "random"}:
                yield ctx.violation(
                    node,
                    self.rule_id,
                    f"function-local 'import {module}' hides a clock/RNG "
                    "dependency; import it at module scope where review and "
                    "this linter can see it",
                )

    def _check_counter_feeds(
        self, ctx: ModuleContext, body: "_Body", tainted: Set[str]
    ) -> Iterator[Violation]:
        """Flag clock-derived values flowing into counter instruments."""
        for node, reads in body.feeds:
            if self._reads_clock(reads, tainted):
                yield ctx.violation(
                    node,
                    self.rule_id,
                    f"clock-derived value feeds counter .{base_name(node.func)}(); "
                    "counters must be identical across backends — put "
                    "durations in histograms or gauges",
                )
        for node, callee, args in body.calls:
            if any(self._reads_clock(r, tainted) for r in self._sunk(callee, args)):
                yield ctx.violation(
                    node,
                    self.rule_id,
                    f"clock-derived value passed to {callee}(), which writes "
                    "it to a counter — put durations in histograms or gauges",
                )
        for node, reads in body.assigns:
            if not self._reads_clock(reads, tainted):
                continue
            for target in assignment_targets(node):
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr in METRICS_COUNTER_FIELDS
                ):
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"clock-derived value written to Metrics counter "
                        f"field '{target.attr}'; counter fields are part "
                        "of the cross-backend determinism contract",
                    )


class _Reads:
    """What an expression reads: a clock call, calls of module-level
    names, and names."""

    __slots__ = ("clock", "callees", "names")

    def __init__(self) -> None:
        self.clock = False
        self.callees: Set[str] = set()
        self.names: Set[str] = set()

    def absorb(self, other: "_Reads") -> None:
        self.clock = self.clock or other.clock
        self.callees |= other.callees
        self.names |= other.names


class _Body:
    """One function body's assignments, returns, counter feeds and calls of
    module-level names, each with what its value (a call: each argument)
    reads."""

    __slots__ = ("assigns", "returns", "feeds", "calls")

    def __init__(self) -> None:
        self.assigns: List[Tuple[ast.AST, _Reads]] = []
        self.returns: List[_Reads] = []
        self.feeds: List[Tuple[ast.Call, _Reads]] = []
        #: (call, callee, [(parameter position or keyword, what it reads)])
        self.calls: List[Tuple[ast.Call, str, List[tuple]]] = []


# -- RL002: process-backend purity -------------------------------------------


@rule
class ProcessPurityRule(Rule):
    """RL002: ``Process(target=...)`` names a globals-clean module-level function."""

    rule_id = "RL002"
    summary = (
        "Process(target=...) must name a picklable module-level function "
        "that does not mutate module globals"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        module_functions: Dict[str, ast.AST] = {}
        nested_functions: Set[str] = set()
        for node in ctx.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if ctx.enclosing_function(node) is None and ctx.enclosing_class(node) is None:
                    module_functions[node.name] = node
                else:
                    nested_functions.add(node.name)
        for node in ctx.nodes:
            if isinstance(node, ast.Call) and base_name(node.func) == "Process":
                for keyword in node.keywords:
                    if keyword.arg == "target":
                        yield from self._check_target(
                            ctx, keyword.value, module_functions, nested_functions
                        )

    def _check_target(
        self,
        ctx: ModuleContext,
        target: ast.AST,
        module_functions: Dict[str, ast.AST],
        nested_functions: Set[str],
    ) -> Iterator[Violation]:
        if isinstance(target, ast.Lambda):
            yield ctx.violation(
                target,
                self.rule_id,
                "lambda as a process target cannot be pickled under the "
                "spawn start method; use a module-level function",
            )
            return
        if not isinstance(target, ast.Name):
            return  # attribute references resolve across modules; out of scope
        if target.id in nested_functions and target.id not in module_functions:
            yield ctx.violation(
                target,
                self.rule_id,
                f"'{target.id}' is a nested function/closure; process "
                "targets must be module-level to pickle",
            )
            return
        definition = module_functions.get(target.id)
        if definition is None:
            return
        for inner in ast.walk(definition):
            if isinstance(inner, ast.Global):
                yield ctx.violation(
                    inner,
                    self.rule_id,
                    f"process target '{target.id}' mutates module globals "
                    f"({', '.join(inner.names)}); a worker's globals die "
                    "with it — ship state in its arguments and its reply",
                )


# -- RL003: lock discipline --------------------------------------------------

LOCK_FACTORY_SUFFIXES = ("Lock", "RLock")
INIT_METHODS = {"__init__", "__post_init__", "__new__", "__init_subclass__"}


def _lock_factory(value: ast.AST) -> Optional[bool]:
    """None unless ``value`` creates a lock, else whether it is reentrant."""
    if not isinstance(value, ast.Call):
        return None
    name = base_name(value.func)
    if name is None or not name.endswith(LOCK_FACTORY_SUFFIXES):
        return None
    return name.endswith("RLock")


def _self_attr(node: ast.AST) -> Optional[str]:
    """``X`` for a ``self.X`` expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _mentions_lock(node: ast.AST) -> bool:
    for child in ast.walk(node):
        name = None
        if isinstance(child, ast.Attribute):
            name = child.attr
        elif isinstance(child, ast.Name):
            name = child.id
        if name is not None and "lock" in name.lower():
            return True
    return False


def _takes_lock(node: ast.AST, lock: str) -> bool:
    """Whether ``node`` is a ``with`` block that acquires ``self.<lock>``."""
    return isinstance(node, (ast.With, ast.AsyncWith)) and any(
        _self_attr(item.context_expr) == lock for item in node.items
    )


def _runs_now(stmts: List[ast.stmt]) -> Iterator[ast.AST]:
    """Nodes of ``stmts``, minus the bodies of defs, lambdas and classes
    (those run later, not under the locks held where they are defined)."""
    stack: List[ast.AST] = list(reversed(stmts))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _may_take(
    methods: Dict[str, ast.AST], name: Optional[str], lock: str, seen: Set[str]
) -> bool:
    """Whether calling ``self.<name>()`` may acquire ``self.<lock>``,
    directly or through further ``self.m()`` calls of the same class."""
    if name is None or name in seen or name not in methods:
        return False
    seen.add(name)
    for node in ast.walk(methods[name]):
        if _takes_lock(node, lock):
            return True
        if isinstance(node, ast.Call) and _may_take(
            methods, _self_attr(node.func), lock, seen
        ):
            return True
    return False


@rule
class LockDisciplineRule(Rule):
    """RL003: lock-owning classes write shared attributes under the lock
    and never take a held non-reentrant lock again."""

    rule_id = "RL003"
    summary = (
        "classes that own a lock must hold it (a 'with <lock>:' ancestor) "
        "for every attribute write outside __init__, and must not take a "
        "held non-reentrant Lock again"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        #: lock attribute -> reentrant (an RLock)
        locks: Dict[str, bool] = {}
        for node in ast.walk(cls):
            if isinstance(node, ast.Assign):
                reentrant = _lock_factory(node.value)
                for target in node.targets:
                    attr = _self_attr(target)
                    if reentrant is not None and attr is not None:
                        locks.setdefault(attr, reentrant)
        if not locks:
            return
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        for node in ast.walk(cls):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                if ctx.enclosing_class(node) is cls:
                    yield from self._check_reacquire(ctx, cls.name, locks, methods, node)
                continue
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            if ctx.enclosing_class(node) is not cls:
                continue
            function = ctx.enclosing_function(node)
            if function is None or function.name in INIT_METHODS:  # type: ignore[union-attr]
                continue
            self_targets = [
                t for t in assignment_targets(node) if _self_attr(t) is not None
            ]
            if not self_targets:
                continue
            if self._under_lock(ctx, node):
                continue
            attrs = ", ".join(f"self.{t.attr}" for t in self_targets)  # type: ignore[attr-defined]
            yield ctx.violation(
                node,
                self.rule_id,
                f"write to {attrs} in lock-owning class {cls.name} is not "
                "under a held lock; guard it with 'with <lock>:' or justify "
                "it with '# repro: ignore[RL003]'",
            )

    def _check_reacquire(
        self,
        ctx: ModuleContext,
        owner: str,
        locks: Dict[str, bool],
        methods: Dict[str, ast.AST],
        held: ast.AST,
    ) -> Iterator[Violation]:
        """Inside ``with self.<lock>:`` on a non-reentrant lock, neither a
        nested ``with`` nor a ``self.m()`` call may take that lock again:
        the thread would wait on itself forever."""
        for item in held.items:  # type: ignore[attr-defined]
            lock = _self_attr(item.context_expr)
            if lock is None or locks.get(lock, True):
                continue
            for node in _runs_now(held.body):  # type: ignore[attr-defined]
                if _takes_lock(node, lock):
                    how = "a nested 'with' takes it again"
                elif isinstance(node, ast.Call) and _may_take(
                    methods, _self_attr(node.func), lock, set()
                ):
                    how = f"self.{_self_attr(node.func)}() takes it again"
                else:
                    continue
                yield ctx.violation(
                    node,
                    self.rule_id,
                    f"self.{lock} in {owner} is a non-reentrant Lock held "
                    f"here, and {how}; the thread deadlocks on itself — "
                    "move the work outside the lock or make it an RLock",
                )

    @staticmethod
    def _under_lock(ctx: ModuleContext, node: ast.AST) -> bool:
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith)) and any(
                _mentions_lock(item.context_expr) for item in ancestor.items
            ):
                return True
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False
        return False


# -- RL004: span discipline -------------------------------------------------

SPAN_CONSTRUCTORS = {"Span", "NullSpan", "SpanRecord"}

#: the one module that builds spans (``Tracer.span()``/``Tracer.record()``)
SPAN_MODULE = "repro.telemetry.trace"


@rule
class SpanConstructionRule(Rule):
    """RL004: spans are only built by the tracer."""

    rule_id = "RL004"
    summary = (
        "Span/NullSpan/SpanRecord are only constructed in "
        "repro.telemetry.trace (by Tracer)"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        if ctx.module == SPAN_MODULE:
            return
        for node in ctx.nodes:
            if isinstance(node, ast.Call):
                name = base_name(node.func)
                if name in SPAN_CONSTRUCTORS:
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"constructing {name} directly; spans are only "
                        "created by Tracer.span()/Tracer.record() so the "
                        "ring buffer and id sequence stay consistent",
                    )


# -- RL005: algorithm purity -------------------------------------------------

ALGORITHM_ROOT = "MiningAlgorithm"
ALGORITHM_METHODS = {"filter", "match", "process"}

IO_BUILTINS = {"open", "print", "input", "exec", "eval"}
IO_PREFIXES = ("sys.stdout", "sys.stderr", "os.", "subprocess.", "shutil.", "socket.")

MUTATOR_METHODS = {
    "add",
    "append",
    "extend",
    "insert",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
    "update",
    "setdefault",
    "sort",
    "reverse",
    "add_vertex",
    "add_edge",
    "remove_vertex",
    "remove_edge",
    "append_row",
}


def _algorithm_classes(ctx: ModuleContext) -> List[ast.ClassDef]:
    """Classes reaching :data:`ALGORITHM_ROOT` through module-local bases."""
    classes = {
        node.name: node for node in ctx.nodes if isinstance(node, ast.ClassDef)
    }
    bases: Dict[str, Set[str]] = {
        name: {b for b in (base_name(base) for base in node.bases) if b}
        for name, node in classes.items()
    }

    def reaches_root(name: str, seen: Set[str]) -> bool:
        if name in seen:
            return False
        seen.add(name)
        for parent in bases.get(name, ()):
            if parent == ALGORITHM_ROOT or reaches_root(parent, seen):
                return True
        return False

    return [node for name, node in classes.items() if reaches_root(name, set())]


@rule
class AlgorithmPurityRule(Rule):
    """RL005: filter/match/process are side-effect-free over their inputs."""

    rule_id = "RL005"
    summary = (
        "MiningAlgorithm.filter/match/process must not perform I/O or "
        "mutate their arguments or self"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for cls in _algorithm_classes(ctx):
            for stmt in cls.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name in ALGORITHM_METHODS
                ):
                    yield from self._check_method(ctx, cls, stmt)

    def _check_method(
        self, ctx: ModuleContext, cls: ast.ClassDef, method: ast.AST
    ) -> Iterator[Violation]:
        args = method.args  # type: ignore[attr-defined]
        params = {
            a.arg
            for a in [*args.posonlyargs, *args.args, *args.kwonlyargs]
            if a.arg != "self"
        }
        where = f"{cls.name}.{method.name}"  # type: ignore[attr-defined]
        for node in ast.walk(method):
            if isinstance(node, ast.Call):
                yield from self._check_io_call(ctx, node, where)
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATOR_METHODS
                    and chain_root(func.value) in params
                ):
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"{where} calls mutator .{func.attr}() on its "
                        "argument; DETECT_CHANGES re-evaluates filter on "
                        "pre/post versions of the same subgraph, which "
                        "mutation corrupts",
                    )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                for target in assignment_targets(node):
                    if isinstance(target, (ast.Attribute, ast.Subscript)):
                        root = chain_root(target)
                        if root in params:
                            yield ctx.violation(
                                node,
                                self.rule_id,
                                f"{where} assigns into its argument "
                                f"'{root}'; algorithm callbacks must treat "
                                "subgraphs and updates as immutable",
                            )
                        elif root == "self":
                            yield ctx.violation(
                                node,
                                self.rule_id,
                                f"{where} mutates self; stateful filter/"
                                "match breaks DETECT_CHANGES's pre/post "
                                "evaluation — keep state in a downstream "
                                "aggregator",
                            )
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if chain_root(target) in params:
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"{where} deletes from its argument; algorithm "
                            "callbacks must treat inputs as immutable",
                        )

    def _check_io_call(
        self, ctx: ModuleContext, node: ast.Call, where: str
    ) -> Iterator[Violation]:
        name = dotted_name(node.func)
        simple = node.func.id if isinstance(node.func, ast.Name) else None
        if simple in IO_BUILTINS:
            yield ctx.violation(
                node,
                self.rule_id,
                f"{where} calls {simple}(); algorithm callbacks run on every "
                "worker for every candidate subgraph and must not perform "
                "I/O",
            )
        elif name is not None and name.startswith(IO_PREFIXES):
            yield ctx.violation(
                node,
                self.rule_id,
                f"{where} touches {name}; algorithm callbacks must not "
                "perform I/O or process-level side effects",
            )


# -- RL006: store encapsulation ----------------------------------------------

#: private attributes of the store's record layer; any access outside
#: ``repro.store`` bypasses the GraphStore protocol (names are chosen to
#: be store-specific, so the attribute check needs no type information)
STORE_PRIVATE_ATTRS = {
    "_records",
    "_shard_records",
    "_latest_ts",
    "_check_ts",
    "_current_interval",
    "_get_rec",
    "_put_rec",
    "_ensure_record",
    "_iter_items",
}


@rule
class StoreEncapsulationRule(Rule):
    """RL006: store internals are only touched inside ``repro.store``."""

    rule_id = "RL006"
    summary = (
        "access to MultiVersionStore privates (_records et al.) outside "
        "repro.store; speak the GraphStore protocol instead"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        if ctx.module.startswith("repro.store") or ctx.module.startswith(
            "repro.analysis"
        ):
            return
        for node in ctx.nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr in STORE_PRIVATE_ATTRS
            ):
                yield ctx.violation(
                    node,
                    self.rule_id,
                    f"accesses store-private attribute '{node.attr}' outside "
                    "repro.store; GC, checkpointing, and every consumer must "
                    "go through the GraphStore protocol (reclaim, "
                    "get_record/iter_records/put_record, *_at reads) so "
                    "every store kind stays swappable",
                )


# -- RL007: network encapsulation --------------------------------------------

#: modules that open raw network I/O; importing one outside ``repro.net``
#: bypasses the framed RPC layer's deadline/retry/exactly-once machinery
RAW_NETWORK_MODULES = {"socket", "selectors"}


@rule
class NetEncapsulationRule(Rule):
    """RL007: raw sockets are only opened inside ``repro.net``."""

    rule_id = "RL007"
    summary = (
        "import of socket/selectors outside repro.net; go through the "
        "framed RPC layer (RpcClient/StoreServer) instead"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        if ctx.module.startswith("repro.net"):
            return
        for node in ctx.nodes:
            modules: List[str] = []
            if isinstance(node, ast.Import):
                modules = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                modules = [node.module.split(".")[0]]
            for module in modules:
                if module in RAW_NETWORK_MODULES:
                    yield ctx.violation(
                        node,
                        self.rule_id,
                        f"imports {module!r} outside repro.net; raw sockets "
                        "bypass the framed RPC layer's deadlines, bounded "
                        "retries, and exactly-once write deduplication — use "
                        "RpcClient/StoreServer (or NetStoreClient) instead",
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


@rule
class ExceptionTaxonomyRule(Rule):
    """RL010: repro.net excepts re-raise; ApplicationError is never eaten."""

    rule_id = "RL010"
    summary = (
        "bare except banned project-wide; repro.net handlers must "
        "re-raise through the NetError taxonomy and never swallow "
        "ApplicationError"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        in_net = ctx.module.startswith("repro.net")
        for node in ctx.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                if not _is_test_module(ctx.module):
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

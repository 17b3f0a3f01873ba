"""The shipped repro-lint rules, RL001–RL007.

Each rule encodes an invariant of this reproduction that example-based
tests can only spot-check (the paper sections cited are the ones whose
correctness argument the invariant carries — see ``docs/internals.md``,
"Static analysis", for the prose version):

==========  ================================================================
RL001       Determinism: no wall-clock or process-global RNG feeding
            counters or result streams (paper §4.5; PR 2's cross-backend
            identical-counter-totals contract).
RL002       Process-backend purity: pool task callables must be module-level
            and must not mutate module globals (paper §5 worker model).
RL003       Thread-safety: classes that own a lock must hold it for every
            post-``__init__`` attribute write (paper §5.3 queue contract).
RL004       Telemetry null-object discipline: hot-path modules branch on
            ``.enabled`` or call through NULL objects, never on
            ``x is None``; spans are only built by ``Tracer`` (PR 2).
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
==========  ================================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.analysis.core import (
    ModuleContext,
    Rule,
    Violation,
    assignment_targets,
    base_name,
    calls_within,
    chain_root,
    dotted_name,
    names_within,
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


def _is_clock_call(node: ast.Call, aliases: Dict[str, str]) -> bool:
    name = _resolve_name(dotted_name(node.func), aliases)
    return name in WALL_CLOCK_CALLS or name in MONOTONIC_CLOCK_CALLS


def _contains_clock(
    node: ast.AST, tainted: Set[str], aliases: Dict[str, str]
) -> bool:
    for call in calls_within(node):
        if _is_clock_call(call, aliases):
            return True
    return bool(names_within(node) & tainted)


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
                yield from self._check_counter_feeds(ctx, node)

    def _check_call(self, ctx: ModuleContext, node: ast.Call) -> Iterator[Violation]:
        name = _resolve_name(dotted_name(node.func), self._aliases)
        if name in WALL_CLOCK_CALLS:
            yield ctx.violation(
                node,
                self.rule_id,
                f"non-monotonic wall clock {name}() is banned: time only via "
                "time.perf_counter/time.monotonic into Metrics *_seconds, "
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
        self, ctx: ModuleContext, func: ast.AST
    ) -> Iterator[Violation]:
        """Flag clock-derived values flowing into counter instruments."""
        tainted: Set[str] = set()
        body_nodes = [n for stmt in func.body for n in ast.walk(stmt)]  # type: ignore[attr-defined]
        # Pass 1: names assigned from expressions containing a clock read.
        for node in body_nodes:
            if isinstance(node, (ast.Assign, ast.AugAssign)) and node.value is not None:
                if _contains_clock(node.value, tainted, self._aliases):
                    for target in assignment_targets(node):
                        if isinstance(target, ast.Name):
                            tainted.add(target.id)
        # Pass 2: tainted values reaching counter mutations.
        for node in body_nodes:
            if isinstance(node, ast.Call):
                method = base_name(node.func)
                if method in {"inc", "set_total"} and isinstance(
                    node.func, ast.Attribute
                ):
                    feeds = list(node.args) + [kw.value for kw in node.keywords]
                    if any(
                        _contains_clock(arg, tainted, self._aliases)
                        for arg in feeds
                    ):
                        yield ctx.violation(
                            node,
                            self.rule_id,
                            f"clock-derived value feeds counter .{method}(); "
                            "counters must be identical across backends — put "
                            "durations in histograms or gauges",
                        )
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                if node.value is None or not _contains_clock(
                    node.value, tainted, self._aliases
                ):
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


# -- RL002: process-backend purity -------------------------------------------

POOL_METHODS = {
    "map",
    "map_async",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
    "apply",
    "apply_async",
    "submit",
}

POOL_RECEIVER_HINTS = ("pool", "executor")


def _is_pool_receiver(func: ast.AST) -> bool:
    if not isinstance(func, ast.Attribute):
        return False
    receiver = base_name(func.value)
    if receiver is None:
        return False
    receiver = receiver.lower().lstrip("_")
    return any(
        receiver == hint or receiver.endswith("_" + hint) or hint in receiver
        for hint in POOL_RECEIVER_HINTS
    )


@rule
class ProcessPurityRule(Rule):
    """RL002: pool task callables are module-level and globals-clean."""

    rule_id = "RL002"
    summary = (
        "process-pool callables must be picklable module-level functions "
        "that do not mutate module globals"
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
            if not isinstance(node, ast.Call):
                continue
            task_args: List[ast.AST] = []
            init_args: List[ast.AST] = []
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in POOL_METHODS
                and _is_pool_receiver(node.func)
            ):
                if node.args:
                    task_args.append(node.args[0])
                task_args.extend(
                    kw.value for kw in node.keywords if kw.arg == "func"
                )
            init_args.extend(
                kw.value for kw in node.keywords if kw.arg == "initializer"
            )
            for arg in task_args:
                yield from self._check_callable(
                    ctx, arg, module_functions, nested_functions, task=True
                )
            for arg in init_args:
                # The initializer is the sanctioned place to seed per-process
                # globals, so it skips the globals-mutation check.
                yield from self._check_callable(
                    ctx, arg, module_functions, nested_functions, task=False
                )

    def _check_callable(
        self,
        ctx: ModuleContext,
        arg: ast.AST,
        module_functions: Dict[str, ast.AST],
        nested_functions: Set[str],
        task: bool,
    ) -> Iterator[Violation]:
        if isinstance(arg, ast.Lambda):
            yield ctx.violation(
                arg,
                self.rule_id,
                "lambda submitted to a process pool cannot be pickled; use a "
                "module-level function",
            )
            return
        if not isinstance(arg, ast.Name):
            return  # attribute references resolve across modules; out of scope
        if arg.id in nested_functions and arg.id not in module_functions:
            yield ctx.violation(
                arg,
                self.rule_id,
                f"'{arg.id}' is a nested function/closure; process-pool "
                "callables must be module-level to pickle",
            )
            return
        definition = module_functions.get(arg.id)
        if definition is None or not task:
            return
        for inner in ast.walk(definition):
            if isinstance(inner, ast.Global):
                yield ctx.violation(
                    inner,
                    self.rule_id,
                    f"task callable '{arg.id}' mutates module globals "
                    f"({', '.join(inner.names)}); ship state via the pool "
                    "initializer or task arguments and return values",
                )


# -- RL003: lock discipline --------------------------------------------------

LOCK_FACTORY_SUFFIXES = ("Lock", "RLock")
INIT_METHODS = {"__init__", "__post_init__", "__new__", "__init_subclass__"}


def _is_lock_factory(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = base_name(value.func)
    return name is not None and name.endswith(LOCK_FACTORY_SUFFIXES)


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


@rule
class LockDisciplineRule(Rule):
    """RL003: lock-owning classes write shared attributes under the lock."""

    rule_id = "RL003"
    summary = (
        "classes that own a lock must hold it (a 'with <lock>:' ancestor) "
        "for every attribute write outside __init__"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        for node in ctx.nodes:
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(ctx, node)

    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Violation]:
        if cls.name in ctx.config.thread_safe_classes:
            return
        owns_lock = any(
            isinstance(node, ast.Assign)
            and _is_lock_factory(node.value)
            and any(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in node.targets
            )
            for node in ast.walk(cls)
        )
        if not owns_lock:
            return
        for node in ast.walk(cls):
            if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                continue
            if ctx.enclosing_class(node) is not cls:
                continue
            function = ctx.enclosing_function(node)
            if function is None or function.name in INIT_METHODS:  # type: ignore[union-attr]
                continue
            self_targets = [
                t
                for t in assignment_targets(node)
                if isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
            ]
            if not self_targets:
                continue
            if self._under_lock(ctx, node):
                continue
            attrs = ", ".join(f"self.{t.attr}" for t in self_targets)
            yield ctx.violation(
                node,
                self.rule_id,
                f"write to {attrs} in lock-owning class {cls.name} is not "
                "under a held lock; guard it with 'with <lock>:' or allowlist "
                "the class via [tool.repro-lint] thread-safe-classes",
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


# -- RL004: telemetry null-object discipline ---------------------------------

TELEMETRY_NAME_TOKENS = {
    "tracer",
    "telemetry",
    "registry",
    "span",
    "histogram",
    "gauge",
    "counter",
    "profile",
}

SPAN_CONSTRUCTORS = {"Span", "NullSpan", "SpanRecord"}

#: telemetry modules RL004 skips: these *define* the null objects and the
#: coalescing helpers, so "is None" checks there are the implementation of
#: the contract rather than violations of it.  Accumulator-style telemetry
#: modules (profile, flame, report) are deliberately NOT listed — they are
#: consumers of the contract and get dogfood-linted like the rest of the
#: tree.
RL004_EXEMPT_MODULES = (
    "repro.telemetry",  # the façade package (__init__): defines ensure()
    "repro.telemetry.trace",
    "repro.telemetry.registry",
    "repro.telemetry.bridge",
)


def _telemetry_subject(node: ast.AST) -> Optional[str]:
    """The compared expression's basename, if it names a telemetry object."""
    name = base_name(node)
    if name is None:
        return None
    tokens = set(name.lower().lstrip("_").split("_"))
    if tokens & TELEMETRY_NAME_TOKENS:
        return name
    return None


def _is_coalescing_ifexp(ctx: ModuleContext, compare: ast.Compare) -> bool:
    """True for ``x if x is not None else NULL_X / ensure(x) / Ctor()``."""
    parent = ctx.parent(compare)
    if not isinstance(parent, ast.IfExp) or parent.test is not compare:
        return False
    for alternative in (parent.body, parent.orelse):
        for child in ast.walk(alternative):
            if isinstance(child, ast.Name) and (
                child.id.startswith("NULL_") or child.id == "ensure"
            ):
                return True
            if isinstance(child, ast.Call):
                name = base_name(child.func)
                if name is not None and (name == "ensure" or name[:1].isupper()):
                    return True
    return False


@rule
class TelemetryNullObjectRule(Rule):
    """RL004: hot paths use NULL_TRACER/NULL_REGISTRY, never None branches."""

    rule_id = "RL004"
    summary = (
        "hot-path modules must not branch on '<telemetry> is None' or "
        "construct spans outside Tracer"
    )

    def check_module(self, ctx: ModuleContext) -> Iterator[Violation]:
        if ctx.module in RL004_EXEMPT_MODULES or ctx.module.startswith(
            "repro.analysis"
        ):
            return
        hot = ctx.config.is_hot_path(ctx.module)
        for node in ctx.nodes:
            if hot and isinstance(node, ast.Compare):
                yield from self._check_compare(ctx, node)
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

    def _check_compare(
        self, ctx: ModuleContext, node: ast.Compare
    ) -> Iterator[Violation]:
        if len(node.ops) != 1 or not isinstance(node.ops[0], (ast.Is, ast.IsNot)):
            return
        left, right = node.left, node.comparators[0]
        operands = [(left, right), (right, left)]
        for subject, other in operands:
            if not (isinstance(other, ast.Constant) and other.value is None):
                continue
            name = _telemetry_subject(subject)
            if name is None:
                continue
            function = ctx.enclosing_function(node)
            if function is not None and function.name == "ensure":  # type: ignore[union-attr]
                continue
            if _is_coalescing_ifexp(ctx, node):
                continue
            yield ctx.violation(
                node,
                self.rule_id,
                f"hot path branches on '{name} is None'; coalesce with "
                "repro.telemetry.ensure() and rely on the NULL_TRACER/"
                "NULL_REGISTRY no-op objects instead",
            )
            return


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

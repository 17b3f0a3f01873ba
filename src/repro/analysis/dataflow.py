"""Fixpoint dataflow over the project call graph: taint and lock facts.

Two whole-program analyses live here, both instances of the same Kleene
iteration (:func:`fixpoint`) over set-valued facts:

* :class:`ReturnTaint` — which functions may *return* a clock- or
  RNG-derived value.  RL001 catches ``counter.inc(time.time())`` inside
  one function; this analysis catches the laundered version, where the
  clock read hides behind ``def elapsed(): return time.perf_counter()``
  and only the helper's *caller* touches the counter.  Facts are taint
  kinds (:data:`WALL`, :data:`MONO`, :data:`RNG`) propagated along call
  edges until stable; recursion just converges (the domain is finite
  and transfer is monotone).
* :class:`LockAnalysis` — the acquired-while-held graph.  For every
  function we record which locks its ``with`` blocks take; the fixpoint
  closes that set over callees ("calling f() may acquire everything f
  acquires"), and every call made *while holding* lock A to code that
  may acquire lock B becomes an edge A → B.  A cycle in that graph is a
  potential deadlock between the store server's connection threads,
  the tracer, and the RPC pool — found statically, before any
  interleaving runs.

Both analyses are conservative consumers of the call graph: unresolved
calls contribute nothing, so the worst failure mode is a missed fact,
never an invented one.  All iteration is over sorted keys — reports
derived from these facts are byte-stable across runs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import CallGraph, FunctionInfo, build_callgraph
from repro.analysis.core import assignment_targets, base_name, dotted_name
from repro.analysis.project import ProjectContext
from repro.analysis.rules import (
    MONOTONIC_CLOCK_CALLS,
    RANDOM_SAFE_ATTRS,
    WALL_CLOCK_CALLS,
    _import_aliases,
    _resolve_name,
)

#: taint kinds — the *why* behind a tainted value, kept in messages
WALL = "wall-clock"
MONO = "monotonic-clock"
RNG = "process-global-rng"

#: marker source for taint introduced by a call in the same function
DIRECT = "<direct>"


def fixpoint(
    nodes: Sequence[str],
    transfer: Callable[[str, Dict[str, FrozenSet[str]]], Iterable[str]],
    initial: FrozenSet[str] = frozenset(),
) -> Tuple[Dict[str, FrozenSet[str]], int]:
    """Kleene iteration to a least fixed point over set-valued facts.

    ``transfer(node, facts)`` returns the facts ``node`` should have
    given everyone's current facts; results are *joined* (union) with the
    existing facts, so any monotone transfer over a finite domain
    terminates — including on recursive call cycles.  ``nodes`` must be
    in deterministic (sorted) order; the round count is returned for
    tests and telemetry.
    """
    facts: Dict[str, FrozenSet[str]] = {node: frozenset(initial) for node in nodes}
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        for node in nodes:
            updated = facts[node] | frozenset(transfer(node, facts))
            if updated != facts[node]:
                facts[node] = updated
                changed = True
    return facts, rounds


# -- return taint ------------------------------------------------------------


class ReturnTaint:
    """Which project functions may return clock/RNG-derived values.

    ``returns[qual]`` is the set of taint kinds function ``qual`` may
    return.  :meth:`expr_taint` answers the interprocedural question
    RL008 asks at each sink: "does this expression carry taint that
    arrived *through a call to a project helper*?" — direct clock reads
    in the same function are deliberately excluded (they are RL001's
    finding, and reporting them twice would teach people to suppress).
    """

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self._aliases: Dict[str, Dict[str, str]] = {}
        for name in sorted(graph.project.modules):
            self._aliases[name] = _import_aliases(graph.project.modules[name])
        self.returns, self.rounds = self._solve()
        self._inter_locals: Dict[str, Dict[str, Dict[str, str]]] = {}

    # facts are "kind" strings; sources are tracked only in the final,
    # per-function local maps (the fixpoint itself needs just the kinds)

    def _solve(self) -> Tuple[Dict[str, FrozenSet[str]], int]:
        nodes = sorted(self.graph.functions)

        def transfer(qual: str, facts: Dict[str, FrozenSet[str]]) -> Set[str]:
            fn = self.graph.functions[qual]
            local = self._locals_map(fn, facts, interprocedural_only=False)
            kinds: Set[str] = set()
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    kinds.update(
                        self._expr_kinds(
                            fn, node.value, local, facts, interprocedural_only=False
                        )
                    )
            return kinds

        return fixpoint(nodes, transfer)

    def _direct_kinds(self, module: str, call: ast.Call) -> Optional[str]:
        """The taint kind of one direct clock/RNG call, if any."""
        name = _resolve_name(dotted_name(call.func), self._aliases.get(module, {}))
        if name in WALL_CLOCK_CALLS:
            return WALL
        if name in MONOTONIC_CLOCK_CALLS:
            return MONO
        if (
            name is not None
            and name.startswith("random.")
            and name.count(".") == 1
            and name.split(".")[1] not in RANDOM_SAFE_ATTRS
        ):
            return RNG
        return None

    def _expr_kinds(
        self,
        fn: FunctionInfo,
        expr: ast.AST,
        local: Mapping[str, Dict[str, str]],
        facts: Mapping[str, FrozenSet[str]],
        interprocedural_only: bool,
    ) -> Dict[str, str]:
        """kind -> source qualname (or :data:`DIRECT`) for one expression."""
        kinds: Dict[str, str] = {}
        for node in ast.walk(expr):
            if isinstance(node, ast.Call):
                if not interprocedural_only:
                    direct = self._direct_kinds(fn.module, node)
                    if direct is not None:
                        kinds.setdefault(direct, DIRECT)
                for callee in self.graph.call_targets(node):
                    for kind in sorted(facts.get(callee, ())):
                        kinds.setdefault(kind, callee)
            elif isinstance(node, ast.Name) and node.id in local:
                for kind, source in sorted(local[node.id].items()):
                    kinds.setdefault(kind, source)
        return kinds

    def _locals_map(
        self,
        fn: FunctionInfo,
        facts: Mapping[str, FrozenSet[str]],
        interprocedural_only: bool,
    ) -> Dict[str, Dict[str, str]]:
        """Local name -> {kind: source} via an inner assignment fixpoint."""
        assigns = [
            node
            for node in ast.walk(fn.node)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and node.value is not None
        ]
        taint: Dict[str, Dict[str, str]] = {}
        changed = True
        while changed:
            changed = False
            for node in assigns:
                kinds = self._expr_kinds(
                    fn, node.value, taint, facts, interprocedural_only
                )
                if not kinds:
                    continue
                for target in assignment_targets(node):
                    if not isinstance(target, ast.Name):
                        continue
                    slot = taint.setdefault(target.id, {})
                    for kind, source in sorted(kinds.items()):
                        if kind not in slot:
                            slot[kind] = source
                            changed = True
        return taint

    # -- queries (used by RL008 after the solve) ---------------------------

    def local_taint(self, qual: str) -> Dict[str, Dict[str, str]]:
        """Interprocedurally tainted locals of ``qual`` (cached)."""
        cached = self._inter_locals.get(qual)
        if cached is None:
            fn = self.graph.functions[qual]
            cached = self._locals_map(fn, self.returns, interprocedural_only=True)
            self._inter_locals[qual] = cached
        return cached

    def expr_taint(self, qual: str, expr: ast.AST) -> Dict[str, str]:
        """kind -> laundering helper, considering only call-carried taint."""
        fn = self.graph.functions[qual]
        return self._expr_kinds(
            fn, expr, self.local_taint(qual), self.returns, interprocedural_only=True
        )


def build_return_taint(project: ProjectContext) -> ReturnTaint:
    """The memoized project taint analysis (built on the shared call graph)."""
    return project.shared("taint", lambda p: ReturnTaint(build_callgraph(p)))


# -- lock order --------------------------------------------------------------


@dataclass(frozen=True, order=True)
class LockEdge:
    """Lock ``src`` was held while code that may acquire ``dst`` ran."""

    src: str
    dst: str
    path: str
    line: int
    col: int
    #: the callee that carries the acquisition, or "with" for direct nesting
    via: str


class LockAnalysis:
    """The acquired-while-held graph over every project lock.

    Lock identity is the *owning definition*: ``self._lock`` created in
    ``Tracer.__init__`` is ``repro.telemetry.trace.Tracer._lock``
    regardless of which method touches it; a function-local lock is
    ``module.func.name``.  Reentrant locks (``RLock``) may self-nest, so
    A → A edges on them are dropped; everything else — including a
    non-reentrant self-loop — feeds cycle detection.
    """

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        #: lock id -> True when reentrant (RLock)
        self.locks: Dict[str, bool] = {}
        #: locks each function acquires directly (its own ``with`` blocks)
        self.direct: Dict[str, FrozenSet[str]] = {}
        #: calls made while holding locks: (held, call node, targets)
        self._held_calls: List[Tuple[Tuple[str, ...], str, int, int, Tuple[str, ...]]] = []
        self.edges: List[LockEdge] = []
        self._collect_locks()
        self._collect_acquisitions()
        self.acquired, self.rounds = self._close_over_calls()
        self._build_edges()

    # -- lock identity -----------------------------------------------------

    def _collect_locks(self) -> None:
        for qual in sorted(self.graph.classes):
            info = self.graph.classes[qual]
            for attr in sorted(info.lock_attrs):
                self.locks[f"{qual}.{attr}"] = info.lock_attrs[attr]
        for qual in sorted(self.graph.functions):
            fn = self.graph.functions[qual]
            for name, reentrant in sorted(self._local_locks(fn).items()):
                self.locks[f"{qual}.{name}"] = reentrant

    @staticmethod
    def _local_locks(fn: FunctionInfo) -> Dict[str, bool]:
        out: Dict[str, bool] = {}
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Call):
                continue
            name = base_name(node.value.func)
            if name is None or not name.endswith(("Lock", "RLock")):
                continue
            reentrant = name.endswith("RLock")
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.setdefault(target.id, reentrant)
        return out

    def _lock_id(self, fn: FunctionInfo, expr: ast.AST) -> Optional[str]:
        """Resolve a ``with`` item to a known lock identity, if possible."""
        # self._lock -> the MRO class that creates the attribute
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and fn.class_qual is not None
        ):
            for ancestor in self.graph.mro(fn.class_qual):
                if expr.attr in self.graph.classes[ancestor].lock_attrs:
                    return f"{ancestor}.{expr.attr}"
            return None
        # a function-local lock
        if isinstance(expr, ast.Name):
            candidate = f"{fn.qualname}.{expr.id}"
            if candidate in self.locks:
                return candidate
        return None

    # -- acquisition walk --------------------------------------------------

    def _collect_acquisitions(self) -> None:
        for qual in sorted(self.graph.functions):
            fn = self.graph.functions[qual]
            acquired: Set[str] = set()
            body = getattr(fn.node, "body", [])
            for stmt in body:
                self._walk(fn, stmt, [], acquired)
            self.direct[qual] = frozenset(acquired)

    def _walk(
        self,
        fn: FunctionInfo,
        node: ast.AST,
        held: List[str],
        acquired: Set[str],
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            # a nested def's body runs later, not under the locks held at
            # its definition site — restart with an empty held stack
            for child in ast.iter_child_nodes(node):
                self._walk(fn, child, [], acquired)
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            taken: List[str] = []
            for item in node.items:
                lock = self._lock_id(fn, item.context_expr)
                if lock is None:
                    continue
                acquired.add(lock)
                for holder in held:
                    if holder != lock or not self.locks.get(lock, False):
                        self.edges.append(
                            LockEdge(
                                src=holder,
                                dst=lock,
                                path=fn.path,
                                line=item.context_expr.lineno,
                                col=item.context_expr.col_offset,
                                via="with",
                            )
                        )
                held.append(lock)
                taken.append(lock)
            for child in node.body:
                self._walk(fn, child, held, acquired)
            for _ in taken:
                held.pop()
            return
        if isinstance(node, ast.Call) and held:
            targets = self.graph.call_targets(node)
            if targets:
                self._held_calls.append(
                    (tuple(held), fn.path, node.lineno, node.col_offset, targets)
                )
        for child in ast.iter_child_nodes(node):
            self._walk(fn, child, held, acquired)

    # -- closure + edges ---------------------------------------------------

    def _close_over_calls(self) -> Tuple[Dict[str, FrozenSet[str]], int]:
        nodes = sorted(self.graph.functions)

        def transfer(qual: str, facts: Dict[str, FrozenSet[str]]) -> Set[str]:
            out: Set[str] = set(self.direct.get(qual, ()))
            for callee in self.graph.callees(qual):
                out.update(facts.get(callee, ()))
            return out

        return fixpoint(nodes, transfer)

    def _build_edges(self) -> None:
        seen: Set[LockEdge] = set(self.edges)
        for held, path, line, col, targets in self._held_calls:
            for callee in targets:
                for lock in sorted(self.acquired.get(callee, ())):
                    for holder in held:
                        if holder == lock and self.locks.get(lock, False):
                            continue  # reentrant self-acquisition is fine
                        edge = LockEdge(
                            src=holder,
                            dst=lock,
                            path=path,
                            line=line,
                            col=col,
                            via=callee,
                        )
                        if edge not in seen:
                            seen.add(edge)
                            self.edges.append(edge)
        self.edges = sorted(seen)

    # -- cycle detection ---------------------------------------------------

    def cycles(self) -> List[Tuple[List[str], LockEdge]]:
        """Deterministic lock-order cycles: (lock path, anchoring edge).

        Strongly connected components of the edge graph; each SCC with a
        cycle is reported once, as the concrete lock path found by a DFS
        from its smallest lock, starting at the first edge along it.
        """
        adjacency: Dict[str, List[str]] = {}
        by_pair: Dict[Tuple[str, str], LockEdge] = {}
        for edge in self.edges:  # already sorted: first edge per pair wins
            adjacency.setdefault(edge.src, []).append(edge.dst)
            adjacency.setdefault(edge.dst, [])
            by_pair.setdefault((edge.src, edge.dst), edge)
        components = _tarjan_sccs(adjacency)
        out: List[Tuple[List[str], LockEdge]] = []
        for component in components:
            members = set(component)
            cyclic = len(component) > 1 or component[0] in adjacency.get(
                component[0], []
            )
            if not cyclic:
                continue
            path = _cycle_path(sorted(component)[0], members, adjacency)
            anchor = by_pair[(path[0], path[1])]
            out.append((path, anchor))
        return sorted(out, key=lambda item: item[0])


def _tarjan_sccs(adjacency: Dict[str, List[str]]) -> List[List[str]]:
    """Tarjan's SCCs, iterative, visiting sorted nodes and successors."""
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    components: List[List[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_index = work.pop()
            if child_index == 0:
                index[node] = lowlink[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on_stack.add(node)
            recurse = False
            successors = sorted(adjacency.get(node, []))
            for position in range(child_index, len(successors)):
                successor = successors[position]
                if successor not in index:
                    work.append((node, position + 1))
                    work.append((successor, 0))
                    recurse = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if recurse:
                continue
            if lowlink[node] == index[node]:
                component: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    for node in sorted(adjacency):
        if node not in index:
            strongconnect(node)
    return components


def _cycle_path(start: str, members: Set[str], adjacency: Dict[str, List[str]]) -> List[str]:
    """A concrete ``start -> ... -> start`` walk inside one SCC."""
    path = [start]
    seen = {start}
    node = start
    while True:
        successors = [
            s for s in sorted(adjacency.get(node, [])) if s in members
        ]
        next_node = None
        for successor in successors:
            if successor == start:
                path.append(start)
                return path
            if successor not in seen:
                next_node = successor
                break
        if next_node is None:
            # dead end inside the SCC (can't happen in a true SCC, but
            # stay safe): close the loop textually
            path.append(start)
            return path
        seen.add(next_node)
        path.append(next_node)
        node = next_node


def build_lock_analysis(project: ProjectContext) -> LockAnalysis:
    """The memoized project lock analysis (built on the shared call graph)."""
    return project.shared("locks", lambda p: LockAnalysis(build_callgraph(p)))

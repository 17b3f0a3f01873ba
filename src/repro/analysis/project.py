"""Whole-program loading: every module parsed once, cached by file hash.

Per-module rules (RL001–RL007) see one file at a time; the cross-module
rules (RL008–RL011) need *all* of them — a call graph cannot resolve an
edge into a module it never parsed.  :func:`load_project` walks a root
directory (normally ``src/repro``), parses every ``.py`` file into the
same :class:`~repro.analysis.core.ModuleContext` the per-module rules
use, and wraps them in a :class:`ProjectContext`:

* **Deterministic iteration.**  Modules are keyed by dotted name and
  stored sorted, so every project-scope analysis visits them in the same
  order on every run — a precondition for byte-identical JSON reports.
* **File-hash-keyed AST cache.**  Parsing is the dominant cost of a
  whole-tree run, and most files do not change between runs.  The cache
  maps ``sha256(source)`` to the pickled ``ast.Module``; hits skip
  :func:`ast.parse` entirely.  The cache file is per-Python-version (AST
  node shapes differ across versions) and every failure mode — missing
  file, truncated pickle, version skew — silently degrades to a parse.
* **Shared analyses.**  Expensive project-scope structures (the call
  graph, the taint fixpoint) are built once per run and memoized on the
  context via :meth:`ProjectContext.shared`, so RL008 and RL009 do not
  each build their own call graph.

Like the rest of the analyzer, nothing here imports the code under
analysis — the project is a set of syntax trees, never a set of modules.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.analysis.config import LintConfig
from repro.analysis.core import (
    SYNTAX_RULE_ID,
    ModuleContext,
    Violation,
    iter_python_files,
    module_name_of,
)

#: bumped whenever ModuleContext/AST expectations change incompatibly
CACHE_VERSION = 1

#: default location of the parsed-AST cache (relative to the CWD; CI
#: restores it across runs keyed on the source hashes)
DEFAULT_CACHE_DIR = ".repro-lint-cache"


def module_name_for(path: Path, root: Path) -> str:
    """Dotted module name of ``path``, rooted at ``root``'s parent.

    ``src/repro/store/api.py`` under root ``src/repro`` becomes
    ``repro.store.api``; paths outside the root fall back to the
    per-module heuristic (:func:`~repro.analysis.core.module_name_of`).
    """
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
        root: Path,
        config: LintConfig,
        modules: Dict[str, ModuleContext],
        syntax_errors: List[Violation],
        cache_hits: int = 0,
        cache_misses: int = 0,
    ) -> None:
        self.root = root
        self.config = config
        #: dotted module name -> context, sorted by name (stable walks)
        self.modules: Dict[str, ModuleContext] = dict(
            sorted(modules.items(), key=lambda kv: kv[0])
        )
        #: RL000 findings for files that did not parse (their modules are
        #: absent from :attr:`modules`; project rules never see them)
        self.syntax_errors = list(syntax_errors)
        self.cache_hits = cache_hits
        self.cache_misses = cache_misses
        self._by_path: Dict[str, ModuleContext] = {
            ctx.path: ctx for ctx in self.modules.values()
        }
        self._shared: Dict[str, object] = {}

    def __iter__(self) -> Iterator[ModuleContext]:
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)

    def module(self, name: str) -> Optional[ModuleContext]:
        return self.modules.get(name)

    def module_for_path(self, path: str) -> Optional[ModuleContext]:
        return self._by_path.get(path)

    def shared(self, key: str, build: Callable[["ProjectContext"], object]):
        """Memoize one project-scope analysis under ``key`` (built once)."""
        if key not in self._shared:
            self._shared[key] = build(self)
        return self._shared[key]

    def suppressed(self, violation: Violation) -> bool:
        """Apply the owning module's ``# repro: ignore[...]`` comments."""
        ctx = self.module_for_path(violation.path)
        return ctx is not None and ctx.suppressed(violation)


# -- the parsed-AST cache ----------------------------------------------------


def _cache_path(cache_dir: Path) -> Path:
    tag = f"{sys.version_info[0]}.{sys.version_info[1]}"
    return cache_dir / f"ast-py{tag}-v{CACHE_VERSION}.pkl"


def _load_cache(cache_dir: Optional[Path]) -> Dict[str, object]:
    if cache_dir is None:
        return {}
    try:
        with open(_cache_path(cache_dir), "rb") as fh:
            payload = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
        return {}
    if not isinstance(payload, dict) or payload.get("version") != CACHE_VERSION:
        return {}
    trees = payload.get("trees")
    return trees if isinstance(trees, dict) else {}


def _store_cache(cache_dir: Optional[Path], trees: Dict[str, object]) -> None:
    if cache_dir is None:
        return
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
        target = _cache_path(cache_dir)
        tmp = target.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump({"version": CACHE_VERSION, "trees": trees}, fh)
        os.replace(tmp, target)
    except (OSError, pickle.PicklingError):
        pass  # the cache is an accelerator, never a correctness dependency


def source_hash(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def load_project(
    root: Path,
    config: Optional[LintConfig] = None,
    cache_dir: Optional[Path] = None,
) -> ProjectContext:
    """Parse every Python file under ``root`` into a :class:`ProjectContext`.

    ``cache_dir`` enables the file-hash-keyed AST cache; ``None`` parses
    everything fresh.  Files matching the config's ``exclude`` patterns
    are skipped, unparsable files become RL000 syntax-error violations.
    """
    config = config if config is not None else LintConfig()
    root = Path(root)
    files = iter_python_files([root.as_posix()], config)
    cached = _load_cache(cache_dir)
    kept: Dict[str, object] = {}
    modules: Dict[str, ModuleContext] = {}
    errors: List[Violation] = []
    hits = misses = 0
    import ast

    for path in files:
        source = path.read_text(encoding="utf-8")
        digest = source_hash(source)
        # Identical files (empty __init__.py's) share a digest; every
        # module still needs its own tree, or node-keyed analyses would
        # see one module's AST nodes inside another.
        tree = cached.get(digest) if digest not in kept else None
        if tree is None:
            try:
                tree = ast.parse(source, filename=path.as_posix())
            except SyntaxError as exc:
                errors.append(
                    Violation(
                        path=path.as_posix(),
                        line=exc.lineno or 0,
                        col=(exc.offset or 1) - 1,
                        rule_id=SYNTAX_RULE_ID,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            misses += 1
        else:
            hits += 1
        kept[digest] = tree
        name = module_name_for(path, root)
        modules[name] = ModuleContext(
            path.as_posix(), source, tree, config, module=name
        )
    if cache_dir is not None and kept != cached:
        _store_cache(cache_dir, kept)
    return ProjectContext(
        root, config, modules, errors, cache_hits=hits, cache_misses=misses
    )


def project_files(project: ProjectContext) -> List[Tuple[str, str]]:
    """``(module, path)`` pairs in deterministic module order."""
    return [(name, ctx.path) for name, ctx in project.modules.items()]

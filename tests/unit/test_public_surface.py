"""The public surface and the docs that describe it stay in step with the code.

Every name a package exports through ``__all__`` must resolve, every
``src/repro`` path the prose docs cite must exist, and every dotted
``repro.x.y`` name in ``docs/`` must import (a module) or resolve (an
attribute of one).  A deletion that forgets an export or a doc reference
fails here instead of at a reader's import.
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOCS = sorted((ROOT / "docs").glob("*.md"))
PROSE = [ROOT / "DESIGN.md", ROOT / "PAPER.md", ROOT / "README.md", *DOCS]

PACKAGES = [
    "repro",
    "repro.streaming",
    "repro.dataflow",
    "repro.store",
    "repro.graph",
    "repro.baselines",
]

SUBPACKAGES = sorted(p.name for p in SRC.iterdir() if (p / "__init__.py").exists())
# ``src/repro/x/y.py`` or a package-relative ``x/y.py`` that is not the tail
# of some other path (``benchmarks/e2e/run.py`` is not ``e2e/run.py``).
PATH_RE = re.compile(
    r"(?<![\w/.-])(?:src/repro/([\w/]+(?:\.py)?)|((?:%s)/[\w/]+\.py))"
    % "|".join(SUBPACKAGES)
)
# ``repro.a.b`` not followed by ``/`` (``repro.profile/1`` is a schema tag).
DOTTED_RE = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+(?![\w/])")


def cited_paths(docs=PROSE):
    for doc in docs:
        for match in PATH_RE.finditer(doc.read_text(encoding="utf-8")):
            yield doc.name, match.group(1) or match.group(2)


def dotted_names():
    return sorted(
        {name for doc in DOCS for name in DOTTED_RE.findall(doc.read_text(encoding="utf-8"))}
    )


def resolve(dotted):
    """Import the longest module prefix of ``dotted``; getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_the_docs_cite_paths_at_all():
    # guards the scan itself: a regex that matched nothing would pass below
    assert len(list(cited_paths())) > 30
    assert "repro.store.api.GraphStore" in dotted_names()


@pytest.mark.parametrize("doc", PROSE, ids=lambda doc: doc.name)
def test_every_cited_source_path_exists(doc):
    missing = sorted({rel for _, rel in cited_paths([doc]) if not (SRC / rel).exists()})
    assert missing == []


@pytest.mark.parametrize("dotted", dotted_names())
def test_every_dotted_name_in_the_docs_resolves(dotted):
    resolve(dotted)

"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import itertools
import sys
from pathlib import Path

import pytest

# Make tests/oracles.py importable from every test package.
sys.path.insert(0, str(Path(__file__).parent))

from repro.graph.adjacency import AdjacencyGraph
from repro.graph.datasets import figure1_graph
from repro.graph.generators import erdos_renyi


_tests_run = itertools.count(1)


@pytest.fixture(autouse=True)
def unfrozen_after_each_test():
    """An open session (or store server) freezes the process's objects out
    of Python's collector until it is closed, and some tests never close
    theirs: without this, every object alive at such a test's last
    ``gc.freeze()`` would stay uncollectable for the rest of the run.

    What ``gc.unfreeze()`` releases lands in the oldest generation without
    counting towards Python's next full collection, and every freeze takes
    the young generations with it before they are counted either, so a
    process that opens a thousand sessions sees few full collections and
    carries their garbage (+30 MB at this suite's peak).  A full collection
    every hundred tests, a dozen in all, keeps the peak where it was.
    """
    yield
    gc.unfreeze()
    if next(_tests_run) % 100 == 0:
        gc.collect()


@pytest.fixture
def triangle_graph() -> AdjacencyGraph:
    return AdjacencyGraph.from_edges([(1, 2), (1, 3), (2, 3)])


@pytest.fixture
def path_graph() -> AdjacencyGraph:
    return AdjacencyGraph.from_edges([(1, 2), (2, 3), (3, 4)])


@pytest.fixture
def k4_graph() -> AdjacencyGraph:
    return AdjacencyGraph.from_edges(
        [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    )


@pytest.fixture
def figure1():
    return figure1_graph()


@pytest.fixture
def random_graph() -> AdjacencyGraph:
    return erdos_renyi(20, 45, seed=42)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running test")

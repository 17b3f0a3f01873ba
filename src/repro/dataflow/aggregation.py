"""Differential aggregators for the AGG operator (paper section 3.3).

With an evolving graph, aggregation state must shrink when matches are
removed as well as grow when they appear.  "Tesseract handles differential
counting using the NEW and REM status emitted along with matches.
Programmers must provide the appropriate differential semantics for custom
aggregations" — an :class:`Aggregator` is exactly that contract: ``add`` for
NEW records and ``remove`` for REM records.
"""

from __future__ import annotations

import abc
from typing import Any, Generic, TypeVar

from repro.errors import AggregationError

V = TypeVar("V")
S = TypeVar("S")


class Aggregator(abc.ABC, Generic[V, S]):
    """Differential aggregation contract: a commutative group action."""

    @abc.abstractmethod
    def zero(self) -> S:
        """The empty aggregation state."""

    @abc.abstractmethod
    def add(self, state: S, value: V) -> S:
        """Fold a NEW value into the state."""

    @abc.abstractmethod
    def remove(self, state: S, value: V) -> S:
        """Retract a REM value from the state."""

    def is_zero(self, state: S) -> bool:
        """Whether the state carries no information (group is dropped)."""
        return state == self.zero()


class CountAggregator(Aggregator[Any, int]):
    """COUNT: differential cardinality."""

    def zero(self) -> int:
        return 0

    def add(self, state: int, value: Any) -> int:
        return state + 1

    def remove(self, state: int, value: Any) -> int:
        if state <= 0:
            raise AggregationError("count retracted below zero")
        return state - 1


class SumAggregator(Aggregator[Any, float]):
    """Differential sum of ``key(value)``."""

    def __init__(self, key=None) -> None:
        self.key = key if key is not None else (lambda value: value)

    def zero(self) -> float:
        return 0

    def add(self, state: float, value: Any) -> float:
        return state + self.key(value)

    def remove(self, state: float, value: Any) -> float:
        return state - self.key(value)


class MeanAggregator(Aggregator[Any, tuple]):
    """Differential mean, kept as a (count, sum) pair."""

    def __init__(self, key=None) -> None:
        self.key = key if key is not None else (lambda value: value)

    def zero(self) -> tuple:
        return (0, 0)

    def add(self, state: tuple, value: Any) -> tuple:
        count, total = state
        return (count + 1, total + self.key(value))

    def remove(self, state: tuple, value: Any) -> tuple:
        count, total = state
        if count <= 0:
            raise AggregationError("mean retracted below zero count")
        return (count - 1, total - self.key(value))

    @staticmethod
    def value(state: tuple) -> float:
        count, total = state
        return total / count if count else 0.0

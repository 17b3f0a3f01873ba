"""Push-based differential stream operators (paper Table 2).

A :class:`Stream` is a node in an operator pipeline.  Records flow through
with a *sign* (+1 for NEW, -1 for REM) and the update timestamp, so every
operator — including grouping, counting, and joins — maintains its state
incrementally under both additions and retractions, which is exactly what
mining an evolving graph requires (paper section 3.3).

Typical usage, mirroring the paper's motif-counting one-liner::

    source = session.output_stream()
    counts = source.group_by(lambda t: MOTIF(t)).count()
    session.process(updates)   # pushes each window's deltas once it ran
    counts.state()   # {motif: count}

Operators return new streams; terminal operators (``count``, ``agg``,
``to_list``) expose their state.  ``push_deltas`` accepts the engine's
:class:`~repro.types.MatchDelta` records directly.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.dataflow.aggregation import Aggregator, CountAggregator
from repro.errors import DataflowError
from repro.telemetry.registry import NULL_INSTRUMENT, NULL_REGISTRY
from repro.types import MatchDelta, Timestamp


class Record:
    """A signed, timestamped value flowing through the pipeline."""

    __slots__ = ("timestamp", "sign", "value")

    def __init__(self, timestamp: Timestamp, sign: int, value: Any) -> None:
        if sign not in (1, -1):
            raise DataflowError("record sign must be +1 or -1")
        self.timestamp = timestamp
        self.sign = sign
        self.value = value

    def with_value(self, value: Any) -> "Record":
        return Record(self.timestamp, self.sign, value)

    def __repr__(self) -> str:
        symbol = "+" if self.sign > 0 else "-"
        return f"Record(ts={self.timestamp}, {symbol}, {self.value!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Record):
            return NotImplemented
        return (
            self.timestamp == other.timestamp
            and self.sign == other.sign
            and self.value == other.value
        )


class Stream:
    """One operator node; subclasses override :meth:`_process`."""

    def __init__(self) -> None:
        self._downstream: List[Stream] = []
        #: per-operator record counter; the null instrument keeps push
        #: branch-free whether or not telemetry is bound (RL004)
        self._records_counter = NULL_INSTRUMENT
        self._registry = NULL_REGISTRY

    # -- construction --------------------------------------------------------

    @staticmethod
    def source() -> "Stream":
        return Stream()

    def _attach(self, node: "Stream") -> "Stream":
        self._downstream.append(node)
        node.bind_telemetry(self._registry)
        return node

    # -- telemetry -------------------------------------------------------

    def _operator_name(self) -> str:
        return type(self).__name__.lstrip("_").lower()

    def bind_telemetry(self, registry, operator: Optional[str] = None) -> "Stream":
        """Count records entering this node (and all attached descendants).

        Each operator gets one child of ``repro_dataflow_records_total``
        labeled with its lowercase class name (``map``, ``filter``,
        ``aggregatenode``, ...); operators attached later inherit the
        binding.  Unbound streams hold the shared no-op instrument, so
        the per-record path is identical either way.
        """
        self._registry = registry
        self._records_counter = registry.counter(
            "repro_dataflow_records_total",
            "records entering each dataflow operator",
        ).labels(operator=operator or self._operator_name())
        for node in self._downstream:
            node.bind_telemetry(registry)
        return self

    # -- data entry ------------------------------------------------------

    def push(self, record: Record) -> None:
        self._records_counter.inc()
        for out in self._process(record):
            for node in self._downstream:
                node.push(out)

    def push_all(self, records: Iterable[Record]) -> None:
        for record in records:
            self.push(record)

    def push_deltas(self, deltas: Iterable[MatchDelta]) -> None:
        """Feed engine output: the subgraph becomes the record value."""
        for delta in deltas:
            self.push(Record(delta.timestamp, delta.sign(), delta.subgraph))

    def _process(self, record: Record) -> Iterable[Record]:
        return (record,)

    # -- Table 2 operators -----------------------------------------------

    def map(self, fn: Callable[[Any], Any]) -> "Stream":
        """MAP: transform each match."""
        return self._attach(_Map(fn))

    def filter(self, predicate: Callable[[Any], bool]) -> "Stream":
        """FILTER: keep matches satisfying the predicate."""
        return self._attach(_Filter(predicate))

    def flat_map(self, fn: Callable[[Any], Iterable[Any]]) -> "Stream":
        """FLATMAP: transform each match and flatten."""
        return self._attach(_FlatMap(fn))

    def join_table(
        self,
        table: Dict[Hashable, Any],
        key: Callable[[Any], Hashable],
    ) -> "Stream":
        """JOIN with a static table: emits (value, table[key]) pairs."""
        return self._attach(_TableJoin(table, key))

    def join(
        self,
        other: "Stream",
        key: Callable[[Any], Hashable],
        other_key: Optional[Callable[[Any], Hashable]] = None,
    ) -> "Stream":
        """JOIN with another stream: incremental two-sided hash join."""
        node = _StreamJoin(key, other_key if other_key is not None else key)
        self._attach(_JoinSide(node, left=True))
        other._attach(_JoinSide(node, left=False))
        return node

    def group_by(self, key: Callable[[Any], Hashable]) -> "GroupedStream":
        """GROUPBY: group matches by a key function."""
        return GroupedStream(self, key)

    def distinct(self) -> "Stream":
        """DISTINCT: collapse multiplicities to set semantics.

        Emits +1 the first time a value becomes present, -1 when its net
        multiplicity returns to zero, and nothing in between — the
        differential-dataflow ``distinct`` operator.  Values must be
        hashable.
        """
        return self._attach(_Distinct())

    def count(self) -> "AggregateNode":
        """COUNT over the whole stream (a single implicit group)."""
        return self.group_by(lambda _value: None).count()

    def agg(self, aggregator: Aggregator) -> "AggregateNode":
        """AGG over the whole stream with custom differential semantics."""
        return self.group_by(lambda _value: None).agg(aggregator)

    # -- sinks ---------------------------------------------------------------

    def to_list(self) -> "CollectNode":
        """Terminal sink collecting every record."""
        node = CollectNode()
        self._attach(node)
        return node

    def for_each(self, fn: Callable[[Record], None]) -> "Stream":
        node = _ForEach(fn)
        self._attach(node)
        return node


class GroupedStream:
    """The result of GROUPBY; terminal aggregations attach per-group state."""

    def __init__(self, parent: Stream, key: Callable[[Any], Hashable]) -> None:
        self.parent = parent
        self.key = key

    def count(self) -> "AggregateNode":
        return self.agg(CountAggregator())

    def agg(self, aggregator: Aggregator) -> "AggregateNode":
        node = AggregateNode(self.key, aggregator)
        self.parent._attach(node)
        return node


class _Map(Stream):
    def __init__(self, fn: Callable[[Any], Any]) -> None:
        super().__init__()
        self.fn = fn

    def _process(self, record: Record) -> Iterable[Record]:
        return (record.with_value(self.fn(record.value)),)


class _Filter(Stream):
    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        super().__init__()
        self.predicate = predicate

    def _process(self, record: Record) -> Iterable[Record]:
        if self.predicate(record.value):
            return (record,)
        return ()


class _FlatMap(Stream):
    def __init__(self, fn: Callable[[Any], Iterable[Any]]) -> None:
        super().__init__()
        self.fn = fn

    def _process(self, record: Record) -> Iterable[Record]:
        return tuple(record.with_value(v) for v in self.fn(record.value))


class _ForEach(Stream):
    def __init__(self, fn: Callable[[Record], None]) -> None:
        super().__init__()
        self.fn = fn

    def _process(self, record: Record) -> Iterable[Record]:
        self.fn(record)
        return (record,)


class _Distinct(Stream):
    """Set semantics over a multiset stream (see :meth:`Stream.distinct`)."""

    def __init__(self) -> None:
        super().__init__()
        self._counts: Dict[Any, int] = {}

    def _process(self, record: Record) -> Iterable[Record]:
        value = record.value
        before = self._counts.get(value, 0)
        after = before + record.sign
        if after < 0:
            raise DataflowError(f"distinct retraction below zero for {value!r}")
        if after == 0:
            del self._counts[value]
        else:
            self._counts[value] = after
        if before == 0 and after > 0:
            return (Record(record.timestamp, 1, value),)
        if before > 0 and after == 0:
            return (Record(record.timestamp, -1, value),)
        return ()


class _TableJoin(Stream):
    """Inner join against an immutable lookup table."""

    def __init__(
        self, table: Dict[Hashable, Any], key: Callable[[Any], Hashable]
    ) -> None:
        super().__init__()
        self.table = table
        self.key = key

    def _process(self, record: Record) -> Iterable[Record]:
        k = self.key(record.value)
        if k in self.table:
            return (record.with_value((record.value, self.table[k])),)
        return ()


class _JoinSide(Stream):
    """Adapter feeding one input of a two-sided stream join."""

    def __init__(self, join: "_StreamJoin", left: bool) -> None:
        super().__init__()
        self.join = join
        self.left = left

    def bind_telemetry(self, registry, operator: Optional[str] = None) -> "Stream":
        super().bind_telemetry(registry, operator)
        self.join.bind_telemetry(registry)
        return self

    def push(self, record: Record) -> None:  # bypass _process/_downstream
        self._records_counter.inc()
        self.join.push_side(record, self.left)


class _StreamJoin(Stream):
    """Incremental inner join: output multiplicity tracks both sides.

    Each side keeps a per-key multiset of values.  A +1 on one side emits a
    +1 pair per current value on the other side; a -1 retracts them, so the
    joined output is always consistent with recomputing from scratch.
    """

    def __init__(
        self,
        left_key: Callable[[Any], Hashable],
        right_key: Callable[[Any], Hashable],
    ) -> None:
        super().__init__()
        self.left_key = left_key
        self.right_key = right_key
        self._left: Dict[Hashable, Dict[Any, int]] = {}
        self._right: Dict[Hashable, Dict[Any, int]] = {}

    def push_side(self, record: Record, left: bool) -> None:
        self._records_counter.inc()
        key = (self.left_key if left else self.right_key)(record.value)
        mine = self._left if left else self._right
        theirs = self._right if left else self._left
        bag = mine.setdefault(key, {})
        bag[record.value] = bag.get(record.value, 0) + record.sign
        if bag[record.value] == 0:
            del bag[record.value]
        if not bag:
            del mine[key]
        outputs: List[Record] = []
        for other_value, multiplicity in theirs.get(key, {}).items():
            pair = (
                (record.value, other_value)
                if left
                else (other_value, record.value)
            )
            for _ in range(multiplicity):
                outputs.append(Record(record.timestamp, record.sign, pair))
        for out in outputs:
            for node in self._downstream:
                node.push(out)


class AggregateNode(Stream):
    """Terminal GROUPBY + AGG node exposing per-group state.

    Downstream nodes receive ``(key, state)`` records after every change,
    enabling cascaded pipelines (e.g. FSM threshold logic).
    """

    def __init__(self, key: Callable[[Any], Hashable], aggregator: Aggregator) -> None:
        super().__init__()
        self.key = key
        self.aggregator = aggregator
        self._state: Dict[Hashable, Any] = {}

    def _process(self, record: Record) -> Iterable[Record]:
        value = record.value
        k = self.key(value)
        states = self._state
        aggregator = self.aggregator
        try:
            state = states[k]
        except KeyError:
            state = aggregator.zero()
        if record.sign > 0:
            state = aggregator.add(state, value)
        else:
            state = aggregator.remove(state, value)
        if aggregator.is_zero(state):
            states.pop(k, None)
        else:
            states[k] = state
        if not self._downstream:
            return ()  # nobody to tell: the state is the output
        return (record.with_value((k, state)),)

    # -- state access ----------------------------------------------------

    def state(self) -> Dict[Hashable, Any]:
        """Per-group aggregation state (a single ``None`` key for COUNT())."""
        return dict(self._state)

    def value(self, key: Hashable = None, default: Any = None) -> Any:
        if key in self._state:
            return self._state[key]
        return self.aggregator.zero() if default is None else default

    def __getitem__(self, key: Hashable) -> Any:
        return self._state[key]


class CollectNode(Stream):
    """Terminal sink keeping every record that reached it."""

    def __init__(self) -> None:
        super().__init__()
        self.records: List[Record] = []

    def _process(self, record: Record) -> Iterable[Record]:
        self.records.append(record)
        return ()

    def values(self) -> List[Any]:
        return [r.value for r in self.records]

    def net_values(self) -> Dict[Any, int]:
        """Net multiplicity per value after applying all signs."""
        net: Dict[Any, int] = {}
        for r in self.records:
            net[r.value] = net.get(r.value, 0) + r.sign
            if net[r.value] == 0:
                del net[r.value]
        return net

    def __len__(self) -> int:
        return len(self.records)

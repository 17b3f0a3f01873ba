"""``push_deltas`` into the operators the engine's output feeds.

Two things are pinned here.  An :class:`AggregateNode` with nothing attached
below it builds no ``(key, state)`` record, and must still end in the state
of one that feeds a cascade (and of a plain counting model).  And
``push_deltas`` reaches both inputs of a two-sided ``join`` — the adapters'
work hangs off a ``push`` override, not off ``_process``.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.dataflow.aggregation import SumAggregator
from repro.dataflow.stream import Record, Stream
from repro.graph.canonical import motif_of
from repro.telemetry import MetricsRegistry
from repro.types import MatchDelta, MatchStatus, MatchSubgraph

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: a small pool, so keys collide and retractions meet their additions
POOL = [
    MatchSubgraph((1, 2), frozenset({(1, 2)})),
    MatchSubgraph((2, 1), frozenset({(1, 2)})),
    MatchSubgraph((1, 2, 3), frozenset({(1, 2), (2, 3)})),
    MatchSubgraph((1, 2, 3), frozenset({(1, 2), (2, 3), (1, 3)})),
    MatchSubgraph((3, 4, 5), frozenset({(3, 4), (4, 5)})),
    MatchSubgraph((2, 4, 6, 8), frozenset({(2, 4), (4, 6), (6, 8)})),
]

#: (timestamp, pool index, retract if live) — see :func:`signed`
draws = st.tuples(st.integers(1, 3), st.integers(0, len(POOL) - 1), st.booleans())
windows = st.lists(st.lists(draws, max_size=12), max_size=5)


def signed(window, live):
    """A window of deltas that never retracts what is not there."""
    out = []
    for ts, index, retract in window:
        retract = retract and live[index] > 0
        live[index] += -1 if retract else 1
        status = MatchStatus.REM if retract else MatchStatus.NEW
        out.append(MatchDelta(ts, status, POOL[index]))
    return out


@pytest.mark.parametrize("bound", [False, True], ids=["unbound", "telemetry"])
@SETTINGS
@given(windows)
def test_a_sinkless_aggregate_ends_where_a_cascaded_one_does(bound, steps):
    ones = SumAggregator(lambda _value: 1)
    registry = MetricsRegistry() if bound else None
    source = Stream.source()
    if bound:
        source.bind_telemetry(registry, operator="source")
    alone = source.group_by(motif_of).agg(ones)
    cascaded = source.group_by(motif_of).agg(ones)
    changes = cascaded.to_list()
    if bound:
        alone.bind_telemetry(registry, operator="alone")
        cascaded.bind_telemetry(registry, operator="cascaded")
    live = Counter()
    fed = 0
    for window in steps:
        deltas = signed(window, live)
        source.push_deltas(deltas)
        fed += len(deltas)
        model = Counter()
        for index, count in live.items():
            if count:
                model[motif_of(POOL[index])] += count
        assert alone.state() == cascaded.state() == dict(model)
        # one (motif, count) change per record; the last per motif is its count
        assert len(changes.records) == fed
        last = dict(changes.values())
        assert {motif: n for motif, n in last.items() if n} == dict(model)
    if bound:
        totals = registry.counter_totals()
        for operator in ("source", "alone", "cascaded"):
            name = 'repro_dataflow_records_total{operator="%s"}' % operator
            assert totals.get(name, 0) == fed


def test_a_sinkless_aggregate_builds_no_output_records():
    seen = []

    class Spy(SumAggregator):
        def zero(self):
            seen.append("zero")
            return 0

        def is_zero(self, state):
            return state == 0

    source = Stream.source()
    sink = source.group_by(lambda m: len(m.vertices)).agg(Spy(lambda _value: 1))
    inner = sink._process

    def spying(record):
        out = inner(record)
        seen.append(out)
        return out

    sink._process = spying
    source.push_deltas([MatchDelta(1, MatchStatus.NEW, m) for m in POOL[:2]])
    # one zero() for the one new group, and nothing built to hand on
    assert seen == ["zero", (), ()] and sink.state() == {2: 2}
    # attached later, a downstream gets every change from then on
    tap = sink.to_list()
    source.push_deltas([MatchDelta(2, MatchStatus.REM, POOL[0])])
    assert seen[3:] == [(Record(2, -1, (2, 1)),)] and tap.values() == [(2, 1)]


def test_push_deltas_reaches_both_sides_of_a_join():
    """Both inputs fed from one source, and one input per source."""
    source, other = Stream.source(), Stream.source()
    size = source.map(lambda m: (len(m.vertices), len(m.edges)))
    doubled = source.join(
        size, key=lambda m: len(m.vertices), other_key=lambda pair: pair[0]
    ).to_list()
    crossed = source.join(other, key=lambda m: m.vertices[0]).to_list()
    source.push_deltas([MatchDelta(1, MatchStatus.NEW, m) for m in POOL])
    # the pool joins with itself on size: 2 twos, 3 threes, 1 four
    assert sum(doubled.net_values().values()) == 2 * 2 + 3 * 3 + 1
    assert crossed.net_values() == {}
    other.push_deltas([MatchDelta(1, MatchStatus.NEW, POOL[0])])
    assert sum(crossed.net_values().values()) == 3  # first vertex 1: three of POOL
    source.push_deltas([MatchDelta(2, MatchStatus.REM, m) for m in POOL])
    assert doubled.net_values() == {} and crossed.net_values() == {}

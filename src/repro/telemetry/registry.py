"""Named counters, gauges, and histograms with labels and exposition.

A :class:`MetricsRegistry` owns *families* of instruments.  A family has a
name (``repro_queue_acked_total``), a kind, optional help text, and one
child instrument per label set — the Prometheus data model, scaled down::

    reg = MetricsRegistry()
    acked = reg.counter("repro_queue_acked_total", "items acknowledged")
    acked.inc()
    reg.histogram("repro_engine_task_seconds").observe(0.002)
    reg.counter("repro_dataflow_records_total").labels(operator="map").inc()

Merging (:meth:`MetricsRegistry.merge`) accumulates another registry —
typically a per-worker registry shipped back from a thread or process —
into this one.  Every merge operation is commutative and associative
(counters and gauges add, histograms add bucket-wise), so merging worker
registries **in any order yields identical exposition output**; the
property test ``tests/property/test_telemetry_properties.py`` enforces
this.

Exposition: :meth:`to_prom` renders Prometheus text format,
:meth:`to_json` a stable JSON document; both sort families and label sets
so output is deterministic.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: default histogram bucket upper bounds, in seconds (latency-oriented)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: buckets for size-like quantities (window sizes, delta counts)
SIZE_BUCKETS: Tuple[float, ...] = (
    1,
    2,
    5,
    10,
    25,
    50,
    100,
    250,
    500,
    1000,
    5000,
    10000,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _fmt_number(v: Any) -> str:
    if isinstance(v, float):
        if v != v or v in (float("inf"), float("-inf")):
            return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(v, "NaN")
        if v.is_integer():
            return str(int(v))
        return repr(v)
    return str(v)


def _escape_label(v: str) -> str:
    return v.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _render_labels(key: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(key)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


class Counter:
    """Monotonic accumulator (merge: sum)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n

    def set_total(self, value: float) -> None:
        """Idempotently set the cumulative total (for snapshot bridges)."""
        self.value = value

    def merge(self, other: "Counter") -> None:
        self.value += other.value


class Gauge:
    """Point-in-time value.

    Merge is additive: for worker-partitioned quantities (items held per
    worker) the sum is the system value, and addition keeps merging
    commutative.  Whole-system gauges should only be set by the session.
    """

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def merge(self, other: "Gauge") -> None:
        self.value += other.value


def _add_partial(partials: List[float], x: float) -> None:
    """Add ``x`` into a Shewchuk exact-partial-sum representation.

    Keeps a short list of non-overlapping floats whose exact mathematical
    sum equals the sum of everything added so far (the ``math.fsum``
    algorithm, incrementally).  Because the represented value is *exact*,
    the rounded total is independent of the order values were added in —
    which is what makes histogram merging order-independent bit-for-bit.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class Histogram:
    """Cumulative-bucket histogram (merge: bucket-wise sum).

    The sum of observations is kept as exact partials (see
    :func:`_add_partial`), so ``sum`` — and therefore the exposition
    output — is identical no matter how per-worker histograms are merged,
    despite float addition itself being non-associative.
    """

    __slots__ = ("bounds", "bucket_counts", "_sum_partials", "count")
    kind = "histogram"

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.bounds = tuple(bounds)
        if any(nxt <= prev for nxt, prev in zip(self.bounds[1:], self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self._sum_partials: List[float] = []
        self.count: int = 0

    @property
    def sum(self) -> float:
        return math.fsum(self._sum_partials)

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        _add_partial(self._sum_partials, value)
        self.count += 1

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds "
                f"({self.bounds} vs {other.bounds})"
            )
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        for partial in other._sum_partials:
            _add_partial(self._sum_partials, partial)
        self.count += other.count

    def cumulative_counts(self) -> List[int]:
        """Prometheus-style cumulative counts, one per bound plus +Inf."""
        out: List[int] = []
        total = 0
        for n in self.bucket_counts:
            total += n
            out.append(total)
        return out


_KIND_FACTORIES = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


class Family:
    """All instruments sharing one metric name, keyed by label set.

    Calling instrument methods (``inc``/``set``/``observe``/...) directly
    on the family operates on its unlabeled child, so simple metrics need
    no ``labels()`` call.  The first such call binds that child (creating
    it, as ``labels()`` would); later ones go straight to it.
    """

    __slots__ = ("name", "kind", "help", "buckets", "children", "_unlabeled")

    def __init__(
        self,
        name: str,
        kind: str,
        help: str = "",
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> None:
        if kind not in _KIND_FACTORIES:
            raise ValueError(f"unknown instrument kind {kind!r}")
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = tuple(buckets) if buckets is not None else None
        self.children: Dict[LabelKey, Any] = {}
        self._unlabeled = None

    def labels(self, **labels: Any):
        """The child instrument for this label set (created on first use)."""
        key = _label_key(labels)
        child = self.children.get(key)
        if child is None:
            if self.kind == "histogram":
                child = Histogram(self.buckets or DEFAULT_BUCKETS)
            else:
                child = _KIND_FACTORIES[self.kind]()
            self.children[key] = child
        return child

    # Convenience pass-throughs to the unlabeled child.

    def _bind(self):
        self._unlabeled = self.labels()
        return self._unlabeled

    def inc(self, n: float = 1) -> None:
        (self._unlabeled or self._bind()).inc(n)

    def dec(self, n: float = 1) -> None:
        (self._unlabeled or self._bind()).dec(n)

    def set(self, value: float) -> None:
        (self._unlabeled or self._bind()).set(value)

    def set_total(self, value: float) -> None:
        (self._unlabeled or self._bind()).set_total(value)

    def observe(self, value: float) -> None:
        (self._unlabeled or self._bind()).observe(value)

    def merge(self, other: "Family") -> None:
        if other.kind != self.kind:
            raise ValueError(
                f"metric {self.name!r}: cannot merge kind {other.kind!r} "
                f"into {self.kind!r}"
            )
        if not self.help and other.help:
            self.help = other.help
        for key, child in other.children.items():
            mine = self.children.get(key)
            if mine is None:
                if self.kind == "histogram":
                    mine = Histogram(child.bounds)
                else:
                    mine = _KIND_FACTORIES[self.kind]()
                self.children[key] = mine
            mine.merge(child)


class MetricsRegistry:
    """A named collection of counter / gauge / histogram families."""

    def __init__(self) -> None:
        self._families: Dict[str, Family] = {}

    # -- instrument access -------------------------------------------------

    def _family(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: Optional[Tuple[float, ...]] = None,
    ) -> Family:
        family = self._families.get(name)
        if family is None:
            family = self._families[name] = Family(name, kind, help, buckets)
        elif family.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {kind}"
            )
        elif help and not family.help:
            family.help = help
        return family

    def counter(self, name: str, help: str = "") -> Family:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Family:
        return self._family(name, "gauge", help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Family:
        return self._family(name, "histogram", help, buckets)

    def families(self) -> List[Family]:
        return [self._families[name] for name in sorted(self._families)]

    # -- merge semantics ---------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry (commutative and associative)."""
        for name in other._families:
            theirs = other._families[name]
            mine = self._families.get(name)
            if mine is None:
                mine = self._families[name] = Family(
                    theirs.name, theirs.kind, theirs.help, theirs.buckets
                )
            mine.merge(theirs)

    # -- exposition --------------------------------------------------------

    def to_prom(self) -> str:
        """Prometheus text exposition format (stable ordering)."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key in sorted(family.children):
                child = family.children[key]
                if family.kind == "histogram":
                    cumulative = child.cumulative_counts()
                    for bound, count in zip(child.bounds, cumulative):
                        labels = _render_labels(key, ("le", _fmt_number(float(bound))))
                        lines.append(f"{family.name}_bucket{labels} {count}")
                    labels = _render_labels(key, ("le", "+Inf"))
                    lines.append(f"{family.name}_bucket{labels} {child.count}")
                    lines.append(
                        f"{family.name}_sum{_render_labels(key)} "
                        f"{_fmt_number(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_render_labels(key)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_render_labels(key)} "
                        f"{_fmt_number(child.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> Dict[str, Any]:
        """A stable JSON-serializable document of every family."""
        out: Dict[str, Any] = {}
        for family in self.families():
            values: List[Dict[str, Any]] = []
            for key in sorted(family.children):
                child = family.children[key]
                entry: Dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry["buckets"] = {
                        _fmt_number(float(b)): n
                        for b, n in zip(child.bounds, child.bucket_counts)
                    }
                    entry["buckets"]["+Inf"] = child.bucket_counts[-1]
                    entry["sum"] = child.sum
                    entry["count"] = child.count
                else:
                    entry["value"] = child.value
                values.append(entry)
            out[family.name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return out

    def dump(self, fmt: str = "json") -> str:
        """Render the registry as ``"prom"`` text or a ``"json"`` document."""
        if fmt == "prom":
            return self.to_prom()
        if fmt == "json":
            return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"
        raise ValueError(f"unknown metrics format {fmt!r}; expected prom or json")

    def counter_totals(self) -> Dict[str, float]:
        """Flat ``{name{labels}: value}`` view of every counter child.

        The cross-backend determinism contract is expressed over this view:
        the same input stream must yield identical counter totals on every
        execution backend.
        """
        out: Dict[str, float] = {}
        for family in self.families():
            if family.kind != "counter":
                continue
            for key in sorted(family.children):
                out[family.name + _render_labels(key)] = family.children[key].value
        return out


class NullInstrument:
    """Shared no-op child: every mutation is a pass, ``labels`` returns self."""

    __slots__ = ()
    value = 0

    def labels(self, **labels: Any) -> "NullInstrument":
        return self

    def inc(self, n: float = 1) -> None:
        pass

    def dec(self, n: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_INSTRUMENT = NullInstrument()


class NullRegistry:
    """The disabled registry: hands out the shared no-op instrument."""

    #: empty family table so ``MetricsRegistry.merge(NULL_REGISTRY)`` is a no-op
    _families: Dict[str, Family] = {}

    def counter(self, name: str, help: str = "") -> NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> NullInstrument:
        return NULL_INSTRUMENT

    def histogram(
        self, name: str, help: str = "", buckets: Iterable[float] = ()
    ) -> NullInstrument:
        return NULL_INSTRUMENT

    def families(self) -> List[Family]:
        return []

    def merge(self, other: Any) -> None:
        pass

    def to_prom(self) -> str:
        return ""

    def to_json(self) -> Dict[str, Any]:
        return {}

    def dump(self, fmt: str = "json") -> str:
        return "" if fmt == "prom" else "{}\n"

    def counter_totals(self) -> Dict[str, float]:
        return {}


NULL_REGISTRY = NullRegistry()

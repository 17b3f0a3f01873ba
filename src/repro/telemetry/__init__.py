"""Telemetry: structured tracing, a metrics registry, and exposition.

The subsystem has three parts (see ``docs/internals.md``, "Telemetry"):

* :mod:`repro.telemetry.trace` — a :class:`Tracer` producing hierarchical
  spans (window → task → engine phases) into a bounded ring buffer, with
  JSON-lines export and cross-process span shipping;
* :mod:`repro.telemetry.registry` — a :class:`MetricsRegistry` of named
  counters, gauges, and histograms with label support, order-independent
  merge semantics, and Prometheus-text / JSON exposition;
* :mod:`repro.telemetry.bridge` — idempotent projections into the
  registry of every count the pipeline keeps as a plain integer (the
  engine's :class:`~repro.core.metrics.Metrics`, the ingress node, the
  work queue, the session); components record only clock readings live.

Everything is wired through one façade, :class:`Telemetry`, which
components accept as an optional constructor argument.  When no telemetry
is supplied they fall back to :data:`NULL_TELEMETRY`, whose tracer and
registry are shared no-op null objects: the disabled hot path costs one
attribute load and a branch (benchmarked in
``benchmarks/test_telemetry_overhead.py``), and allocates nothing.

Typical use::

    from repro.telemetry import Telemetry

    tel = Telemetry()
    session = StreamingSession(algorithm, "process", telemetry=tel)
    session.process(updates)
    print(tel.registry.dump("prom"))          # Prometheus text exposition
    tel.tracer.export_jsonl(open("trace.jsonl", "w"))

or from the CLI: ``python -m repro mine 4-C --graph g.edges
--metrics-out metrics.json --trace-out trace.jsonl``.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.bridge import ingress_to_registry, metrics_to_registry
from repro.telemetry.profile import ExplorationProfile, UpdateProfile
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
)
from repro.telemetry.trace import (
    NullSpan,
    NullTracer,
    NULL_SPAN,
    NULL_TRACER,
    Span,
    SpanRecord,
    Tracer,
)

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "ensure",
    "Tracer",
    "NullTracer",
    "Span",
    "NullSpan",
    "SpanRecord",
    "NULL_TRACER",
    "NULL_SPAN",
    "MetricsRegistry",
    "NullRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Family",
    "NULL_REGISTRY",
    "NULL_INSTRUMENT",
    "DEFAULT_BUCKETS",
    "SIZE_BUCKETS",
    "metrics_to_registry",
    "ingress_to_registry",
    "ExplorationProfile",
    "UpdateProfile",
]


class Telemetry:
    """An enabled tracer + registry pair, threaded through the pipeline."""

    enabled = True

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        registry: Optional[MetricsRegistry] = None,
        trace_capacity: int = 8192,
        node: Optional[str] = None,
    ) -> None:
        self.tracer = (
            tracer
            if tracer is not None
            else Tracer(capacity=trace_capacity, node=node)
        )
        self.registry = registry if registry is not None else MetricsRegistry()


class _NullTelemetry:
    """The disabled pair: shared null tracer and registry, zero overhead."""

    enabled = False
    tracer = NULL_TRACER
    registry = NULL_REGISTRY


NULL_TELEMETRY = _NullTelemetry()


def ensure(telemetry: "Optional[Telemetry]") -> "Telemetry":
    """Coalesce an optional telemetry argument onto the null object."""
    return telemetry if telemetry is not None else NULL_TELEMETRY  # type: ignore[return-value]

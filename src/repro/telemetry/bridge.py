"""Projections of the pipeline's own counts into a registry.

Each count is kept once, as a plain integer, by the component that owns
it (the engine's :class:`~repro.core.metrics.Metrics`, the ingress node,
the work queue, the session); :func:`session_to_registry` projects them
into a fresh :class:`~repro.telemetry.registry.MetricsRegistry` at
snapshot points (end of run, metrics dump), with telemetry on or off.
Only clock readings are recorded live.  Projections use ``set_total``, so
re-projecting is idempotent, and every count is deterministic for a given
input stream — the basis of the cross-backend "identical counter totals"
contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.telemetry.registry import SIZE_BUCKETS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.metrics import Metrics
    from repro.runtime.session import StreamingSession
    from repro.store.api import GraphStore
    from repro.streaming.ingress import IngressNode
    from repro.streaming.queue import WorkQueue
    from repro.telemetry.registry import MetricsRegistry

#: the Figure 6 operation categories as (metrics attr stem, metric stem)
ENGINE_COUNTERS = (
    ("filter_calls", "repro_engine_filter_calls_total"),
    ("match_calls", "repro_engine_match_calls_total"),
    ("can_expand_calls", "repro_engine_can_expand_calls_total"),
    ("expansions", "repro_engine_expansions_total"),
    ("emits", "repro_engine_emits_total"),
    ("explore_calls", "repro_engine_explore_calls_total"),
)

def metrics_to_registry(registry: "MetricsRegistry", metrics: "Metrics") -> None:
    """Project a merged :class:`Metrics` snapshot into engine counters.

    The call counters are the paper's Figure 6 categories (match / filter /
    CAN_EXPAND) plus the expansion/emit/explore counts the simulated cluster
    (SimulatedBackend) uses as work units (wall time per window is
    ``repro_session_window_seconds``).
    """
    for attr, name in ENGINE_COUNTERS:
        registry.counter(name, f"cumulative engine {attr}").set_total(
            getattr(metrics, attr)
        )
    registry.counter(
        "repro_engine_work_units_total",
        "abstract work units of all recorded operations",
    ).set_total(metrics.work_units())


def _count(registry: "MetricsRegistry", name: str, help_text: str, value: int) -> None:
    """Declare counter ``name``; set it once ``value`` is nonzero, as a live
    counter showed no series before its first increment."""
    counter = registry.counter(name, help_text)
    if value:
        counter.set_total(value)


def session_to_registry(
    registry: "MetricsRegistry", session: "StreamingSession"
) -> None:
    """Project every count a session's components keep into a freshly
    built ``registry`` (see :func:`window_stats_to_registry`)."""
    metrics_to_registry(registry, session.metrics())
    ingress_to_registry(registry, session.ingress)
    queue_to_registry(registry, session.queue)
    store_to_registry(registry, session.store)
    window_stats_to_registry(registry, session.window_stats)
    _count(
        registry,
        "repro_session_worker_restarts_total",
        "worker crashes recovered by queue redelivery",
        session.worker_restarts,
    )


def ingress_to_registry(registry: "MetricsRegistry", ingress: "IngressNode") -> None:
    """Project the ingress node's acceptance and window counts.

    Each submitted update is counted once, in one of the two: dropped when
    sanitization finds it changes nothing (a duplicate add, a delete or
    relabel of a missing edge), else accepted.  They are *net*
    quantities (an add cancelled by a delete in the same window moves to
    dropped with that delete); together they are the submitted updates,
    less any that sanitization rejected as invalid.
    """
    _count(
        registry,
        "repro_ingress_updates_submitted_total",
        "raw updates submitted to the ingress node",
        ingress.updates_accepted + ingress.updates_dropped,
    )
    _count(
        registry,
        "repro_ingress_windows_total",
        "snapshot windows applied",
        ingress.windows_applied,
    )
    registry.counter(
        "repro_ingress_updates_accepted_total",
        "submitted updates that changed the graph (net of same-window "
        "cancellations)",
    ).set_total(ingress.updates_accepted)
    registry.counter(
        "repro_ingress_updates_dropped_total",
        "submitted updates that changed nothing (duplicates, no-ops, "
        "cancellations)",
    ).set_total(ingress.updates_dropped)
    registry.counter(
        "repro_ingress_gc_reclaimed_total",
        "store records reclaimed by garbage collection",
    ).set_total(ingress.gc_reclaimed)


def queue_to_registry(registry: "MetricsRegistry", queue: "WorkQueue") -> None:
    """Project the work queue's offset counts and its ready depth."""
    for stem, help_text, value in (
        ("appended", "work items durably appended", queue.total_appended()),
        ("acked", "work items fully processed and acked", queue.acked_count()),
        (
            "redelivered",
            "in-flight items returned to the queue after a worker crash",
            queue.redelivered,
        ),
    ):
        _count(registry, f"repro_queue_{stem}_total", help_text, value)
    registry.gauge("repro_queue_depth", "items currently ready to poll").set(
        len(queue)
    )


def window_stats_to_registry(registry: "MetricsRegistry", window_stats) -> None:
    """Project per-window stats into session-level metrics.

    Counters are set with ``set_total`` (idempotent on re-bridge); the
    histograms are *rebuilt* from the stats list, so this must only be
    called on a freshly built registry (see
    :meth:`~repro.runtime.session.StreamingSession.collect_registry`),
    never repeatedly on a live one.
    """
    registry.counter(
        "repro_session_windows_total", "snapshot windows executed"
    ).set_total(len(window_stats))
    registry.counter(
        "repro_session_updates_total", "edge updates executed across windows"
    ).set_total(sum(w.num_updates for w in window_stats))
    deltas = registry.counter(
        "repro_session_deltas_total", "match deltas emitted across windows"
    )
    deltas.labels(kind="new").set_total(sum(w.num_new for w in window_stats))
    deltas.labels(kind="rem").set_total(sum(w.num_rem for w in window_stats))
    h_seconds = registry.histogram(
        "repro_session_window_seconds", "wall seconds per executed window"
    )
    h_updates = registry.histogram(
        "repro_session_window_updates",
        "edge updates per executed window",
        buckets=SIZE_BUCKETS,
    )
    for w in window_stats:
        h_seconds.observe(w.wall_seconds)
        h_updates.observe(w.num_updates)


#: numeric store_stats keys bridged as gauges, with help text; the
#: ``cache_*`` keys are the held record copies of a ``remote``/``net``
#: client.  Hit/miss counts depend on worker scheduling and on how many
#: clients a backend materializes (process workers fork their copies), so
#: none of these belong in the deterministic ``counter_totals`` contract.
STORE_GAUGES = (
    ("cache_hits", "store-client record reads served by a held copy"),
    ("cache_misses", "store-client record reads that fetched first"),
    ("cache_entries", "store-client held record copies"),
    ("cache_hit_ratio", "store-client held-copy hit ratio"),
    ("delta_entries", "delta-index edge facts held"),
    ("access_total", "vertex-record fetches charged to shards"),
    ("access_imbalance", "max/mean shard fetch-load ratio over all shards"),
    ("fetches", "remote-store record fetches"),
    ("fetch_simulated_seconds", "simulated seconds spent in remote fetches"),
)


def store_to_registry(registry: "MetricsRegistry", store: "GraphStore") -> None:
    """Project a store's stats snapshot into ``repro_store_*`` gauges."""
    stats = store.store_stats()
    for key, help_text in STORE_GAUGES:
        value = stats.get(key)
        if value is not None:
            registry.gauge(f"repro_store_{key}", help_text).set(float(value))
    net_to_registry(registry, store)


#: wire-truth NetLog fields bridged as ``repro_net_*`` gauges.  RPC and
#: retry counts depend on scheduling and injected faults, so — like the
#: cache counters above — they are gauges, never determinism-contract
#: counters.
NET_GAUGES = (
    ("rpcs", "RPC request frames sent (each retry attempt counts)"),
    ("retries", "RPC attempts beyond the first"),
    ("deadline_hits", "RPC attempts abandoned at the per-call deadline"),
    ("bytes_sent", "request bytes written to the socket (frames included)"),
    ("bytes_received", "response payload bytes read from the socket"),
)

#: RPC round-trip latency buckets: 50µs to ~3s
NET_LATENCY_BUCKETS = (
    0.00005,
    0.0002,
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    3.0,
)


def net_to_registry(registry: "MetricsRegistry", store: "GraphStore") -> None:
    """Project a wire-backed store's :class:`~repro.net.rpc.NetLog`.

    No-op for stores without a ``net_log`` (every in-process kind), so the
    store bridge can call it unconditionally.  Latency samples become the
    ``repro_net_rpc_seconds`` histogram; sampling is capped client-side
    (:data:`~repro.net.rpc.LATENCY_SAMPLE_CAP`).

    The gauges are bridged **additively** (``inc`` onto a freshly built
    scrape registry, never ``set``): process workers ship their own
    clients' wire activity as gauge values in their per-window
    registries, which the session merges in *before* this bridge runs —
    a ``set`` here would silently clobber those worker counts with the
    parent client's view alone (the PR 9 bug sweep finding).
    """
    net_log = getattr(store, "net_log", None)
    if net_log is None:
        return
    _net_log_into(registry, net_log)


def net_delta_to_registry(registry: "MetricsRegistry", store: "GraphStore") -> None:
    """Ship a wire-backed store's activity *since the last take*.

    The worker-side half of the net-accounting contract: called once per
    window by each process-backend slice worker against its own
    (redialled or reconnected) client, it consumes the client's
    :meth:`~repro.net.client.NetStoreClient.take_net_delta` and records
    it additively, so merged worker registries sum to exactly the wire
    truth (every RPC counted once, none lost, none inherited).
    No-op for stores without a delta source.
    """
    take = getattr(store, "take_net_delta", None)
    if take is None:
        return
    _net_log_into(registry, take())


def _net_log_into(registry: "MetricsRegistry", net_log) -> None:
    for key, help_text in NET_GAUGES:
        registry.gauge(f"repro_net_{key}", help_text).inc(
            float(getattr(net_log, key))
        )
    histogram = registry.histogram(
        "repro_net_rpc_seconds",
        "RPC round-trip latency (successful calls, capped sample)",
        buckets=NET_LATENCY_BUCKETS,
    )
    for sample in net_log.latencies_s:
        histogram.observe(sample)

"""Distributed execution runtime: the streaming session and its backends."""

from repro.runtime.backend import (
    BACKEND_NAMES,
    DeploymentResult,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SimulatedBackend,
    make_backend,
)
from repro.runtime.cluster import ClusterSpec
from repro.runtime.fault import CrashPlan, FaultInjector
from repro.runtime.scheduler import DynamicScheduler, StaticPartitionScheduler
from repro.runtime.session import StreamingSession
from repro.runtime.stats import (
    LatencySummary,
    SystemStats,
    summarize_latencies,
)

__all__ = [
    "BACKEND_NAMES",
    "ClusterSpec",
    "DeploymentResult",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "SimulatedBackend",
    "make_backend",
    "StreamingSession",
    "CrashPlan",
    "FaultInjector",
    "LatencySummary",
    "DynamicScheduler",
    "StaticPartitionScheduler",
    "SystemStats",
    "summarize_latencies",
]

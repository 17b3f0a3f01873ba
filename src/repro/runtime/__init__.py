"""Distributed execution runtime: the streaming session, its backends, simulation."""

from repro.runtime.backend import (
    BACKEND_NAMES,
    DeploymentResult,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    SimulatedBackend,
    ThreadBackend,
    make_backend,
)
from repro.runtime.cluster import ClusterSpec, SimResult
from repro.runtime.costmodel import ClusterSimulator
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
    "SimResult",
    "ClusterSimulator",
    "DeploymentResult",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
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

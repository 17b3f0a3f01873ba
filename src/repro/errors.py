"""Exception hierarchy for the Tesseract reproduction.

Every error raised by the library derives from :class:`TesseractError` so
callers can catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class TesseractError(Exception):
    """Base class for all errors raised by this library."""


class GraphStoreError(TesseractError):
    """Base class for graph-store failures."""


class UnknownVertexError(GraphStoreError, KeyError):
    """A vertex id was referenced that does not exist at the given snapshot."""

    def __init__(self, vertex: int) -> None:
        super().__init__(f"unknown vertex {vertex!r}")
        self.vertex = vertex


class UnknownEdgeError(GraphStoreError, KeyError):
    """An edge was referenced that does not exist at the given snapshot."""

    def __init__(self, src: int, dst: int) -> None:
        super().__init__(f"unknown edge ({src!r}, {dst!r})")
        self.src = src
        self.dst = dst


class InvalidUpdateError(TesseractError, ValueError):
    """A graph update is malformed or violates store invariants."""


class SnapshotError(GraphStoreError):
    """A snapshot was requested at an invalid or garbage-collected timestamp."""


class QueueError(TesseractError):
    """Base class for work-queue failures."""


class QueueClosedError(QueueError):
    """An operation was attempted on a closed queue."""


class OffsetError(QueueError, ValueError):
    """A consumer referenced an invalid queue offset."""


class DataflowError(TesseractError):
    """An output-processing pipeline was misconfigured or misused."""


class AggregationError(DataflowError):
    """A custom aggregation is missing differential (NEW/REM) semantics."""


class ClusterError(TesseractError):
    """A simulated-cluster configuration or scheduling failure."""


class WorkerCrashed(TesseractError):
    """Injected worker failure used by the fault-tolerance machinery."""

    def __init__(self, worker_id: int, task_offset: int) -> None:
        super().__init__(f"worker {worker_id} crashed on task offset {task_offset}")
        self.worker_id = worker_id
        self.task_offset = task_offset


class PatternError(TesseractError, ValueError):
    """A pattern graph is malformed (e.g. disconnected or empty)."""

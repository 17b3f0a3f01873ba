"""Streaming substrate: ingress node and durable work queue."""

from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkItem, WorkQueue

__all__ = [
    "IngressNode",
    "WorkItem",
    "WorkQueue",
]

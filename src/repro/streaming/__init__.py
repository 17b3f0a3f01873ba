"""Streaming substrate: ingress node and durable work queue."""

from repro.streaming.ingress import IngressNode, Window
from repro.streaming.queue import WorkItem, WorkQueue

__all__ = [
    "IngressNode",
    "Window",
    "WorkItem",
    "WorkQueue",
]

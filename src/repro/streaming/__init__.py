"""Streaming substrate: ingress node and durable work queue."""

from repro.streaming.ingress import IngressNode
from repro.streaming.queue import WorkQueue

__all__ = [
    "IngressNode",
    "WorkQueue",
]

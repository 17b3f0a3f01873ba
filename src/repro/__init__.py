"""Tesseract reproduction: distributed, general graph pattern mining on
evolving graphs (Bindschaedler et al., EuroSys 2021).

Public API quick reference::

    from repro import (
        AdjacencyGraph, MiningAlgorithm, StreamingSession, TesseractEngine,
        Update,
    )
    from repro.apps import CliqueMining, GraphKeywordSearch

See README.md for a walkthrough and DESIGN.md for the system inventory.
"""

from repro.core.api import EdgeInduced, MiningAlgorithm, VertexInduced
from repro.core.engine import TesseractEngine, collect_matches
from repro.dataflow import MOTIF
from repro.dataflow.stream import Stream
from repro.core.metrics import Metrics
from repro.core.stesseract import STesseractEngine
from repro.errors import TesseractError
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.pattern import Pattern
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.streaming.ingress import IngressNode, Window
from repro.streaming.queue import WorkItem, WorkQueue
from repro.types import (
    EdgeUpdate,
    MatchDelta,
    MatchStatus,
    MatchSubgraph,
    Update,
    UpdateKind,
)

__version__ = "1.0.0"

__all__ = [
    "AdjacencyGraph",
    "EdgeInduced",
    "EdgeUpdate",
    "IngressNode",
    "MatchDelta",
    "MatchStatus",
    "MatchSubgraph",
    "Metrics",
    "MiningAlgorithm",
    "MultiVersionStore",
    "Pattern",
    "MOTIF",
    "STesseractEngine",
    "Stream",
    "StreamingSession",
    "TesseractEngine",
    "TesseractError",
    "Update",
    "UpdateKind",
    "VertexInduced",
    "Window",
    "WorkItem",
    "WorkQueue",
    "collect_matches",
    "__version__",
]

"""Work assignment policies for the simulated cluster.

Tesseract uses *dynamic work assignment*: any worker can process any update
because the sharded store is fully accessible, so an idle worker simply
pulls the next update (paper section 5.3).  The alternative the paper argues
against — partitioning updates across workers up front — is provided as
:class:`StaticPartitionScheduler` so the ablation benchmark can quantify the
load-balance win.

A scheduler picks the worker for the next update given each worker's
next-available time; :class:`~repro.runtime.backend.SimulatedBackend` then
charges the task's whole duration (dequeue + fetches + work + emits) to
that worker.
"""

from __future__ import annotations

from typing import Sequence

from repro.types import EdgeUpdate


class DynamicScheduler:
    """FIFO queue + earliest-idle-worker assignment (the paper's scheme)."""

    name = "dynamic"

    def select(
        self, update: EdgeUpdate, index: int, available: Sequence[float]
    ) -> int:
        """Pick the earliest-available worker (ties to the lowest id)."""
        return min(range(len(available)), key=available.__getitem__)


class StaticPartitionScheduler:
    """Hash-partitioned assignment: each update has a fixed home worker.

    Ignores load, so a run of expensive updates landing on one worker
    creates stragglers — the imbalance Tesseract's design avoids.
    """

    name = "static-partition"

    def select(
        self, update: EdgeUpdate, index: int, available: Sequence[float]
    ) -> int:
        # Partition by update edge (the natural key), not arrival index.
        key = (update.u * 1000003 + update.v) & 0x7FFFFFFF
        return key % len(available)

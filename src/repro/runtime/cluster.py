"""The shape of a simulated deployment.

The paper's testbed is 8 machines with 16 cores and 128 GB each (section
6.1).  We cannot observe real multi-node scaling from pure Python (see
DESIGN.md "Substitutions"), so
:class:`~repro.runtime.backend.SimulatedBackend` executes every task once
on one host and charges it to a simulated worker of a :class:`ClusterSpec`:
its measured work, its record fetches through its machine's cache, and its
turn at the single work queue.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ClusterSpec:
    """A simulated deployment."""

    num_machines: int = 8
    workers_per_machine: int = 16
    #: vertex records each machine's in-memory graph cache can hold
    cache_capacity_per_machine: int = 1_000_000

    def __post_init__(self) -> None:
        if self.num_machines < 1 or self.workers_per_machine < 1:
            raise ValueError("cluster must have at least one worker")
        if self.cache_capacity_per_machine < 0:
            raise ValueError(
                "cache_capacity_per_machine must be at least 0, "
                f"got {self.cache_capacity_per_machine}"
            )

    @property
    def total_workers(self) -> int:
        return self.num_machines * self.workers_per_machine

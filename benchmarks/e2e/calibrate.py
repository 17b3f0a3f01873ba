"""Machine-speed calibration: times are reported in reference-machine seconds.

This box's speed is not a constant.  The same seed of ``clique4-mv-serial``
took 5.1 s to 8.2 s of wall over consecutive runs (wall ~ CPU, so it is the
machine, not the scheduler), and the interquartile spread of raw
``updates_per_s`` over ten runs was 12-20% of the median: wider than any
bound a regression gate could usefully hold.

So the driver runs a fixed, allocation-and-dict-heavy pure-Python *kernel*
(~0.4 ms) after every window, outside the window's latency, and before and
after every set-up.  The kernel is benchmark code: no change to the program
can move it; it only sees the machine.  A time ``t`` measured next to kernel
samples averaging ``k`` is reported as ``t * REF_KERNEL_S / k``: the time the
same work takes on a machine on which the kernel takes ``REF_KERNEL_S``
(this box in one of its faster phases).  Measured on this box over eight runs
of one seed, the spread of the normalised total went from 20% to 3%
(``clique4-mv-serial``), 14% to 5% (``ingest-empty-mv``) and 14% to 2%
(``clique4-net-serial``).

Per-window latencies use the mean of the five kernel samples around the
window (slow phases last seconds, so a local factor tightens the p95); CPU
time and per-layer times use the run's mean sample.  Raw wall-clock numbers
are printed beside the normalised ones and kept in every run record.
"""

from __future__ import annotations

import time
from typing import List, Sequence

#: kernel time of the reference machine, in seconds
REF_KERNEL_S = 0.0004
#: kernel samples on each side of a window that set its local speed factor
_NEIGHBOURS = 2

_clock = time.perf_counter


def kernel() -> float:
    """Run the calibration kernel once; returns its wall seconds."""
    t0 = _clock()
    table = {}
    get = table.get
    acc = 0
    for i in range(3000):
        table[i & 511] = (i, acc)
        hit = get(i & 255)
        if hit is not None:
            acc += hit[0] & 7
    sorted(table)
    return _clock() - t0


def burst(n: int = 10) -> List[float]:
    return [kernel() for _ in range(n)]


def factor(samples: Sequence[float]) -> float:
    """Speed factor of the machine while ``samples`` were taken."""
    return REF_KERNEL_S * len(samples) / sum(samples)


def local_factors(samples: Sequence[float]) -> List[float]:
    """One factor per window, from the kernel samples around it."""
    n = len(samples)
    return [
        factor(samples[max(0, i - _NEIGHBOURS) : min(n, i + _NEIGHBOURS + 1)])
        for i in range(n)
    ]

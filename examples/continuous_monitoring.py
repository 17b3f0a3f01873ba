#!/usr/bin/env python3
"""Operate Tesseract as a long-running service: churn, stats, checkpoints.

An ops-flavored scenario: a session continuously consumes a churning
edge stream (adds and deletes), reports per-window statistics, takes
a checkpoint mid-run, "crashes", recovers from the checkpoint, and proves
the recovered deployment picks up exactly where it left off.

Run:  python examples/continuous_monitoring.py
"""

import os
import tempfile

from repro.apps import CliqueMining
from repro.core.engine import TesseractEngine, collect_matches
from repro.graph.generators import barabasi_albert, churn_stream
from repro.runtime.session import StreamingSession
from repro.store.checkpoint import checkpoint_store, restore_store

ALGORITHM = lambda: CliqueMining(k=3, min_size=3)
BATCH = 50

graph = barabasi_albert(120, 3, seed=11)
updates = list(churn_stream(graph, 400, churn=0.25, seed=12))
first_half, second_half = updates[:200], updates[200:]


def serve(session, stream):
    """The service loop: one micro-batch in, its windows mined, repeat."""
    for start in range(0, len(stream), BATCH):
        session.process(stream[start : start + BATCH])


# ---- phase 1: run the service over the first half of the stream --------
session = StreamingSession(ALGORITHM(), "process", window_size=10, num_workers=2)
live = session.output_stream().count()
serve(session, first_half)
executed = sum(w.num_updates for w in session.window_stats)
seconds = session.latency_summary().total_seconds
print("phase 1:")
print(f"  {executed} updates in {len(session.window_stats)} windows, "
      f"{executed / seconds:,.0f} updates/s, {live.value()} live triangles")
print(session.stats().report())

# ---- checkpoint, then 'crash' ------------------------------------------
ckpt = tempfile.NamedTemporaryFile(suffix=".json", delete=False)
checkpoint_store(session.store, ckpt.name)
print(f"\ncheckpoint written to {ckpt.name}")
deltas_so_far = session.deltas()
del session  # the process dies here

# ---- phase 2: recover and continue -------------------------------------
recovered = StreamingSession(
    ALGORITHM(), "process", window_size=10, num_workers=2,
    store=restore_store(ckpt.name),
)
os.unlink(ckpt.name)
serve(recovered, second_half)
print("\nphase 2 (after recovery):")
print(f"  window latencies: {recovered.latency_summary().report()}")

# ---- verify: combined delta stream == recompute from final graph --------
final_live = collect_matches(deltas_so_far + recovered.deltas())
expected = collect_matches(
    TesseractEngine.run_static(recovered.snapshot(), ALGORITHM())
)
assert final_live == expected
print(f"\nrecovered run is exact: {len(final_live)} live triangles "
      f"match a full recomputation.")

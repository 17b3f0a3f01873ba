"""Property tests: every execution backend emits the same delta stream.

The :class:`~repro.runtime.backend.ExecutionBackend` contract requires
deltas in task order, so for any evolving-graph workload the serial,
process, and simulated backends must produce *byte-identical*
delta streams (and therefore identical live match sets) — over additions,
deletion-heavy streams, and any window size.
"""

import itertools
from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import CliqueMining, MotifCounting
from repro.core.engine import collect_matches
from repro.runtime.backend import BACKEND_NAMES, ProcessBackend
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.telemetry import Telemetry
from repro.types import Update
from scenarios import stream_bytes

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

ALGORITHMS = [
    lambda: CliqueMining(4, min_size=3),
    lambda: MotifCounting(3, min_size=3),
]


@st.composite
def evolving_workloads(draw, max_vertices=7, length=22):
    """A random add/delete interleaving, a window size, and a delete bias.

    ``delete_bias`` of 0.75 makes the stream deletion-heavy: most steps
    remove a live edge when one exists.
    """
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    possible = list(itertools.combinations(range(n), 2))
    window = draw(st.sampled_from([1, 2, 3, 6]))
    delete_bias = draw(st.sampled_from([0.25, 0.75]))
    ops = []
    present = set()
    for _ in range(length):
        delete = present and draw(
            st.floats(min_value=0.0, max_value=1.0)
        ) < delete_bias
        if delete:
            e = draw(st.sampled_from(sorted(present)))
            present.discard(e)
            ops.append(Update.delete_edge(*e))
        else:
            e = draw(st.sampled_from(possible))
            if e in present:
                continue
            present.add(e)
            ops.append(Update.add_edge(*e))
    return ops, window


def run_session(algorithm, backend, ops, window, **kwargs):
    return finished_session(algorithm, backend, ops, window, **kwargs).deltas()


def finished_session(algorithm, backend, ops, window, **kwargs):
    session = StreamingSession(
        algorithm, backend, window_size=window, **kwargs
    )
    # Flush mid-stream too, so every backend really runs window by window
    # against an evolving store rather than one pre-applied batch.
    half = len(ops) // 2
    session.submit_many(ops[:half])
    session.flush()
    session.submit_many(ops[half:])
    session.flush()
    session.close()
    return session


class TestBackendEquivalence:
    @SETTINGS
    @given(evolving_workloads())
    def test_all_backends_byte_identical(self, workload):
        ops, window = workload
        for make_algorithm in ALGORITHMS:
            reference = run_session(make_algorithm(), "serial", ops, window)
            reference_bytes = stream_bytes(reference)
            reference_live = collect_matches(reference)
            for name in BACKEND_NAMES[1:]:
                deltas = run_session(
                    make_algorithm(), name, ops, window, num_workers=2
                )
                assert deltas == reference, f"{name} diverged from serial"
                assert stream_bytes(deltas) == reference_bytes, (
                    f"{name} stream is not byte-identical to serial"
                )
                assert collect_matches(deltas) == reference_live

    @SETTINGS
    @given(evolving_workloads(length=18))
    def test_process_backend_streams_window_by_window(self, workload):
        """The process backend mines a live stream, window by window.

        ``min_parallel=1`` puts slice workers under *every* window, so each
        window forks against the store as it stood after that window's
        ingress application, not a pre-applied batch.  With 2,
        3 and 5 processes over windows of 1, 2, 3 and 6 updates, windows
        smaller than, equal to and not a multiple of the process count all
        occur; whichever process mined a task, the stream, the counters,
        the profile and the trace must read as serial's do.
        """
        ops, window = workload
        algorithm = CliqueMining(4, min_size=3)
        serial = finished_session(
            algorithm, "serial", ops, window, telemetry=Telemetry(), profile=True
        )
        reference = serial.deltas()
        reference_totals = serial.collect_registry().counter_totals()
        reference_profile = serial.collect_profile().to_dict()
        for num_processes in (2, 3, 5):
            store = MultiVersionStore()
            telemetry = Telemetry()
            backend = ProcessBackend(
                store,
                algorithm,
                num_processes=num_processes,
                min_parallel=1,
                telemetry=telemetry,
                profile=True,
            )
            session = finished_session(
                algorithm, backend, ops, window, store=store, telemetry=telemetry
            )
            deltas = session.deltas()
            assert deltas == reference
            assert stream_bytes(deltas) == stream_bytes(reference)
            assert collect_matches(deltas) == collect_matches(reference)
            assert session.collect_registry().counter_totals() == reference_totals
            assert session.collect_profile().to_dict() == reference_profile
            # exactly one task span per task, under that task's window span
            records = telemetry.tracer.records()
            tasks_under = Counter(r.parent_id for r in records if r.name == "task")
            windows = {
                r.span_id: r.attrs["updates"] for r in records if r.name == "window"
            }
            assert tasks_under == Counter(windows)

"""Regression tests: everything the process backend ships must pickle.

The process backend hands each slice worker its entry point and arguments
(pickled under the spawn start method) and reads back one result message
per worker per window over a pipe.  A lambda, nested function, or
unpicklable payload anywhere on that path only fails at runtime — these
tests make the contract explicit (RL002 of repro-lint checks the entry
point, ``Process(target=...)``, statically).
"""

import multiprocessing
import pickle

import pytest

from repro.apps import CliqueMining, DiamondMining, MotifCounting, PathMining
from repro.runtime.backend import _mine_slice, _slice_worker
from repro.store.mvstore import MultiVersionStore
from repro.telemetry import (
    NULL_REGISTRY,
    ExplorationProfile,
    MetricsRegistry,
    NullRegistry,
)
from repro.types import EdgeUpdate


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


class TestTaskCallablesPickle:
    def test_worker_entry_point_is_module_level(self):
        # A Process target pickles by qualified name: it must resolve back
        # to the same module-level object.
        assert _roundtrip(_slice_worker) is _slice_worker
        assert _roundtrip(_mine_slice) is _mine_slice

    @pytest.mark.parametrize(
        "algorithm",
        [
            CliqueMining(4, min_size=3),
            MotifCounting(3, min_size=3),
            PathMining(3),
            DiamondMining(),
        ],
        ids=lambda a: type(a).__name__,
    )
    def test_algorithms_pickle(self, algorithm):
        clone = _roundtrip(algorithm)
        assert type(clone) is type(algorithm)
        assert clone.max_size == algorithm.max_size

    def test_store_pickles_with_history(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=2)
        store.delete_edge(1, 2, ts=3)
        clone = _roundtrip(store)
        assert clone.edge_alive_at(2, 3, 3)
        assert not clone.edge_alive_at(1, 2, 3)
        assert clone.edge_alive_at(1, 2, 2)

    def test_worker_args_tuple_pickles(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        tasks = [(1, EdgeUpdate(1, 2, added=True))]
        args = (tasks, store, CliqueMining(3, min_size=3), False, False)
        clone = _roundtrip(args)
        assert clone[0] == tasks
        assert clone[3] is False


class TestShippedResultsPickle:
    def _run(self, telemetry_on, profile_on=False):
        """One worker's whole reply, read back through a real pipe.

        The backend applies the window before mining it, so the explored
        updates must already exist at their timestamp.  Running the entry
        point in-process still pickles the message: that is what ``send``
        does.
        """
        store = MultiVersionStore()
        store.add_edge(1, 2, ts=1)
        store.add_edge(2, 3, ts=1)
        store.add_edge(1, 3, ts=2)
        store.add_edge(3, 4, ts=2)
        tasks = [
            (2, EdgeUpdate(1, 3, added=True)),
            (2, EdgeUpdate(3, 4, added=True)),
        ]
        receiver, sender = multiprocessing.Pipe(duplex=False)
        with receiver:
            algorithm = CliqueMining(3, min_size=3)
            _slice_worker(sender, tasks, store, algorithm, telemetry_on, profile_on)
            assert sender.closed
            reply = receiver.recv()
            with pytest.raises(EOFError):  # exactly one message, then EOF
                receiver.recv()
        return reply

    def test_message_pickles_with_telemetry_off(self):
        deltas, metrics, spans, registry, profile = self._run(telemetry_on=False)
        # one delta list per task, in slice order: closing the triangle
        # emits a match, the pendant edge none
        assert len(deltas) == 2
        assert deltas[0] and not deltas[1]
        assert metrics.explore_calls == 2
        assert spans == []
        # The disabled path ships the null registry; merging it anywhere
        # must stay a no-op after the round trip.
        assert isinstance(registry, NullRegistry)
        assert registry.counter_totals() == {}
        # An unprofiled worker ships no profile.
        assert profile is None

    def test_message_pickles_with_telemetry_on(self):
        deltas, metrics, spans, registry, profile = self._run(telemetry_on=True)
        assert deltas[0]
        # one engine for the slice: one task span per task, one registry
        assert [span.name for span in spans] == ["task", "task"]
        assert isinstance(registry, MetricsRegistry)
        assert metrics.emits >= 1
        assert profile is None

    def test_message_pickles_with_profile_on(self):
        deltas, _, spans, _, profile = self._run(telemetry_on=False, profile_on=True)
        assert deltas[0]
        assert spans == []
        assert isinstance(profile, ExplorationProfile)
        totals = profile.totals()
        assert totals["updates"] == 2
        assert totals["new"] >= 1
        # The shipped profile must merge into a fresh accumulator with its
        # counts intact (the caller-side merge path).
        merged = ExplorationProfile()
        merged.merge(profile)
        assert merged.totals() == totals

    def test_message_pickles_with_everything_on(self):
        _, _, spans, registry, profile = self._run(telemetry_on=True, profile_on=True)
        assert len(spans) == 2
        assert isinstance(registry, MetricsRegistry)
        assert profile.totals()["updates"] == 2

    def test_null_registry_pickles(self):
        assert isinstance(_roundtrip(NULL_REGISTRY), NullRegistry)

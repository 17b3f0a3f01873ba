"""Lifecycle of ``gc.freeze()``: on while a session or a store server is open.

A session freezes whatever exists when its set-up ends (the preloaded
store, above all) out of Python's collector and ``close()`` unfreezes it;
``StoreServer`` does the same for the store it serves.  Freezing is
process-wide, so these tests read ``gc.get_freeze_count()`` rather than
look for particular objects, and ``tests/conftest.py`` unfreezes after
every test for the many that never close their session.
"""

import gc
import signal

import pytest

from repro.apps import CliqueMining
from repro.cli import main
from repro.graph.generators import erdos_renyi
from repro.net import NetStoreClient, StoreServer
from repro.runtime.backend import BACKEND_NAMES
from repro.runtime.session import StreamingSession
from repro.store.mvstore import MultiVersionStore
from repro.types import Update

GRAPH = erdos_renyi(14, 40, seed=3)
UPDATES = [Update.add_edge(u, v) for u, v in sorted(GRAPH.edges())]


@pytest.fixture(autouse=True)
def starts_unfrozen():
    assert gc.get_freeze_count() == 0


class TestSession:
    @pytest.mark.parametrize(
        "backend,store",
        [(backend, "mv") for backend in BACKEND_NAMES] + [("serial", "net")],
    )
    def test_frozen_while_open(self, backend, store):
        session = StreamingSession(
            CliqueMining(3), backend, store=store, num_workers=2, window_size=8
        )
        try:
            assert gc.get_freeze_count() > 0
            session.process(UPDATES)
            assert gc.get_freeze_count() > 0
        finally:
            session.close()
        assert gc.get_freeze_count() == 0

    def test_initial_graph_is_what_gets_frozen(self):
        bare = StreamingSession(CliqueMining(3))
        without = gc.get_freeze_count()
        bare.close()
        big = erdos_renyi(400, 3000, seed=1)
        loaded = StreamingSession(CliqueMining(3), initial_graph=big)
        # at least one tracked object per preloaded edge left the generations
        assert gc.get_freeze_count() - without >= big.num_edges()
        loaded.close()
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_run_static_unfreezes(self, backend):
        deltas = StreamingSession.run_static(GRAPH, CliqueMining(3), backend)
        assert deltas
        assert gc.get_freeze_count() == 0

    def test_run_static_unfreezes_when_mining_raises(self):
        class Dies(CliqueMining):
            def match(self, s):
                raise RuntimeError("match died")

        with pytest.raises(RuntimeError):
            StreamingSession.run_static(GRAPH, Dies(3))
        assert gc.get_freeze_count() == 0

    def test_a_session_never_closed_does_not_break_the_next(self):
        abandoned = StreamingSession(CliqueMining(3), window_size=8)
        abandoned.process(UPDATES[:16])  # two whole windows
        session = StreamingSession(CliqueMining(3), window_size=8)
        reference = session.process(UPDATES)
        session.close()
        # closing one session unfreezes the process: the other keeps working,
        # its state is merely collectable again
        assert gc.get_freeze_count() == 0
        abandoned.process(UPDATES[16:])
        assert abandoned.deltas() == reference
        gc.collect()
        assert abandoned.live_matches() == session.live_matches()


class TestStoreServer:
    def test_embedded_server(self):
        server = StoreServer(MultiVersionStore.from_adjacency(GRAPH)).start()
        assert gc.get_freeze_count() > 0
        server.close()
        assert gc.get_freeze_count() == 0
        server.close()  # idempotent

    def test_net_client_with_its_own_server(self):
        client = NetStoreClient(graph=GRAPH)
        assert gc.get_freeze_count() > 0
        assert client.num_vertices() == GRAPH.num_vertices()
        client.close()
        assert gc.get_freeze_count() == 0

    def test_serve_store_command(self, monkeypatch, capsys):
        """``repro serve-store`` in-process: serving is replaced by the
        signal the command shuts down on."""
        seen = []

        def serve_forever(self):
            seen.append(gc.get_freeze_count())
            raise KeyboardInterrupt

        monkeypatch.setattr(StoreServer, "serve_forever", serve_forever)
        handlers = {s: signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)}
        try:
            assert main(["serve-store", "--addr", "127.0.0.1:0"]) == 0
        finally:
            for signum, handler in handlers.items():
                signal.signal(signum, handler)
        assert capsys.readouterr().out.startswith("serving mv store on 127.0.0.1:")
        assert seen and seen[0] > 0
        assert gc.get_freeze_count() == 0

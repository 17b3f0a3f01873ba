"""Unit tests for graph I/O, store checkpointing, and the CLI."""

import json

import pytest

from repro.errors import GraphStoreError, InvalidUpdateError
from repro.graph.adjacency import AdjacencyGraph
from repro.graph.io import (
    read_edge_list,
    read_update_stream,
    write_edge_list,
    write_update_stream,
)
from repro.store.checkpoint import (
    checkpoint_store,
    restore_store,
    store_from_dict,
    store_to_dict,
)
from repro.store.mvstore import MultiVersionStore
from repro.types import Update, UpdateKind


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path):
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3)])
        g.set_vertex_label(1, "red")
        g.add_edge(3, 4, label="strong")
        g.add_edge(4, 5, direction="fwd")
        g.add_edge(5, 6, direction="rev", label="inhibits")
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        back = read_edge_list(path)
        assert sorted(back.edges()) == sorted(g.edges())
        assert back.vertex_label(1) == "red"
        assert back.edge_label(3, 4) == "strong"
        assert back.edge_direction(4, 5) == "fwd"
        assert back.edge_direction(5, 6) == "rev"
        assert back.edge_label(5, 6) == "inhibits"

    def test_direction_tokens_parsed(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 2 >\n3 4 < weak\n5 6 <>\n")
        g = read_edge_list(path)
        assert g.has_directed_edge(1, 2) and not g.has_directed_edge(2, 1)
        assert g.has_directed_edge(4, 3) and not g.has_directed_edge(3, 4)
        assert g.edge_label(3, 4) == "weak"
        assert g.has_directed_edge(5, 6) and g.has_directed_edge(6, 5)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# header\n\n1 2\n2 3 # inline comment\n")
        g = read_edge_list(path)
        assert g.num_edges() == 2

    def test_isolated_labeled_vertex(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("v 9 blue\n1 2\n")
        g = read_edge_list(path)
        assert g.vertex_label(9) == "blue"
        assert g.degree(9) == 0

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1\n")
        with pytest.raises(InvalidUpdateError):
            read_edge_list(path)


class TestUpdateStreamIO:
    def test_roundtrip_all_kinds(self, tmp_path):
        updates = [
            Update.add_edge(1, 2),
            Update.add_edge(2, 3, label="x"),
            Update.add_edge(4, 5, direction="fwd"),
            Update.add_edge(6, 7, label="y", direction="both"),
            Update.delete_edge(1, 2),
            Update.add_vertex(7, label="red"),
            Update.add_vertex(8),
            Update.delete_vertex(7),
            Update.set_vertex_label(8, "blue"),
            Update.set_edge_label(2, 3, "y"),
        ]
        path = tmp_path / "s.updates"
        write_update_stream(updates, path)
        back = list(read_update_stream(path))
        assert back == updates

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "s.updates"
        path.write_text("zz 1 2\n")
        with pytest.raises(InvalidUpdateError):
            list(read_update_stream(path))

    def test_malformed_fields_rejected(self, tmp_path):
        path = tmp_path / "s.updates"
        path.write_text("a 1\n")
        with pytest.raises(InvalidUpdateError):
            list(read_update_stream(path))


class TestCheckpoint:
    def make_store(self):
        s = MultiVersionStore(num_shards=4)
        s.add_edge(1, 2, ts=1, label="x")
        s.add_edge(2, 3, ts=1)
        s.delete_edge(1, 2, ts=2)
        s.add_edge(1, 2, ts=3)
        s.set_vertex_label(1, ts=3, label="red")
        return s

    def test_roundtrip_preserves_history(self, tmp_path):
        s = self.make_store()
        path = tmp_path / "ckpt.json"
        checkpoint_store(s, path)
        r = restore_store(path)
        assert r.latest_timestamp == s.latest_timestamp
        for ts in range(0, 4):
            assert sorted(r.edges_at(ts)) == sorted(s.edges_at(ts))
        assert r.vertex_label_at(1, 3) == "red"
        assert r.vertex_label_at(1, 2) is None
        assert r.edge_label_at(1, 2, 1) == "x"

    def test_restored_store_shares_intervals_across_endpoints(self, tmp_path):
        """Deleting via one endpoint must be visible from the other."""
        s = self.make_store()
        path = tmp_path / "ckpt.json"
        checkpoint_store(s, path)
        r = restore_store(path)
        r.delete_edge(2, 1, ts=5)
        assert not r.edge_alive_at(1, 2, 5)
        assert not r.edge_alive_at(2, 1, 5)

    @pytest.mark.parametrize("kind", ["mv", "remote"])
    def test_restored_edge_takes_a_write_once(self, kind):
        """Each endpoint holds its own list of the shared intervals, as
        ``add_edge`` leaves them: a re-add appends one interval, and a
        ``remote`` client's copy of it is tombstoned by the next delete."""
        r = store_from_dict({**store_to_dict(self.make_store()), "kind": kind})
        r.neighbor_states_at(1, 3)  # a remote client now holds a copy of 1
        r.delete_edge(1, 2, ts=4)
        r.add_edge(2, 1, ts=5)
        r.delete_edge(1, 2, ts=6)
        assert len(r.get_record(1).edges[2]) == len(r.get_record(2).edges[1]) == 3
        assert not r.edge_alive_at(1, 2, 6)
        assert r.neighbor_states_at(1, 6) == {2: (True, False)}

    def test_restored_store_accepts_new_updates(self, tmp_path):
        s = self.make_store()
        path = tmp_path / "ckpt.json"
        checkpoint_store(s, path)
        r = restore_store(path)
        r.add_edge(5, 6, ts=4)
        assert r.edge_alive_at(5, 6, 4)

    def test_format_version_checked(self):
        with pytest.raises(GraphStoreError):
            store_from_dict({"format": 99})

    def test_dict_is_json_serializable(self):
        json.dumps(store_to_dict(self.make_store()))


class TestCheckpointRecovery:
    def test_crash_recovery_replays_queue_tail(self, tmp_path):
        """Checkpoint mid-stream, 'crash', restore, replay — same output."""
        from repro.apps import CliqueMining
        from repro.core.engine import TesseractEngine, collect_matches
        from repro.graph.generators import erdos_renyi, shuffled_edges
        from repro.streaming.ingress import IngressNode
        from repro.streaming.queue import WorkQueue

        g = erdos_renyi(12, 30, seed=50)
        edges = shuffled_edges(g, seed=1)
        store = MultiVersionStore()
        queue = WorkQueue()
        ingress = IngressNode(store, queue, window_size=3)
        ingress.submit_many(Update.add_edge(u, v) for u, v in edges)
        ingress.flush()
        # process half the queue, checkpoint, 'crash'
        engine = TesseractEngine(store, CliqueMining(3, min_size=3))
        deltas = []
        for _ in range(queue.total_appended() // 2):
            item = queue.poll()
            deltas.extend(engine.process_update(item.timestamp, item.update))
            queue.ack(item.offset)
        path = tmp_path / "ckpt.json"
        checkpoint_store(store, path)
        # recovery: restore the store, drain the remaining queue items
        recovered = restore_store(path)
        engine2 = TesseractEngine(recovered, CliqueMining(3, min_size=3))
        for ts, items in queue.drain_windows():
            for item in items:
                deltas.extend(engine2.process_update(ts, item.update))
        live = collect_matches(deltas)
        expected = collect_matches(
            TesseractEngine.run_static(g, CliqueMining(3, min_size=3))
        )
        assert live == expected


class TestCLI:
    def test_datasets_command(self, capsys):
        from repro.cli import main

        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "lj-sim" in out and "LiveJournal" in out

    def test_generate_and_motifs(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "g.edges"
        g = AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3), (3, 4)])
        write_edge_list(g, path)
        assert main(["motifs", str(path), "-k", "3"]) == 0
        out = capsys.readouterr().out
        assert "Motif" in out

    def test_mine_updates(self, tmp_path, capsys):
        from repro.cli import main

        stream = tmp_path / "s.updates"
        write_update_stream(
            [Update.add_edge(1, 2), Update.add_edge(2, 3), Update.add_edge(1, 3)],
            stream,
        )
        assert main(["mine", "3-C", "--updates", str(stream), "--window", "1"]) == 0
        out = capsys.readouterr().out
        assert "NEW\t1,2,3" in out

    def test_mine_deletion_after_preload(self, tmp_path, capsys):
        """A REM may retract a match that pre-dates ``--graph``: the summary
        reports the signed net change instead of a count going negative."""
        from repro.cli import main

        graph = tmp_path / "g.edges"
        write_edge_list(AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3)]), graph)
        stream = tmp_path / "s.updates"
        write_update_stream([Update.delete_edge(1, 2)], stream)
        assert main(["mine", "3-C", "--graph", str(graph), "--updates", str(stream)]) == 0
        captured = capsys.readouterr()
        assert "REM\t1,2,3" in captured.out
        assert "0 NEW / 1 REM, -1 net change" in captured.err
        # the static mode still counts what is live
        assert main(["mine", "3-C", "--graph", str(graph)]) == 0
        assert "1 NEW / 0 REM, 1 live matches" in capsys.readouterr().err

    def test_mine_requires_input(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["mine", "3-C"])

    def test_thread_is_not_a_backend_choice(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(["mine", "3-C", "--graph", "nope", "--backend", "thread"])
        assert info.value.code == 2  # argparse: invalid choice
        assert "invalid choice: 'thread'" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_worker_count_below_one_is_refused(self, tmp_path, workers):
        from repro.cli import main

        graph = tmp_path / "g.edges"
        write_edge_list(AdjacencyGraph.from_edges([(1, 2), (2, 3), (1, 3)]), graph)
        argv = ["mine", "3-C", "--graph", str(graph), "--backend", "process"]
        with pytest.raises(SystemExit, match="--workers must be at least 1"):
            main(argv + ["--workers", workers])

    def test_unknown_algorithm(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["mine", "9-XYZ", "--graph", "nope"])

    def test_algorithm_specs(self):
        from repro.cli import _make_algorithm

        assert _make_algorithm("4-C").name == "4-C"
        assert _make_algorithm("4-cl").name == "4-CL"
        assert _make_algorithm("3-MC").name == "3-MC"
        assert _make_algorithm("4-GKS-3").name == "4-GKS-3"
        assert _make_algorithm("diamond").name == "Diamond"
        assert _make_algorithm("4-cycle").name == "4-Cycle"


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        from repro.cli import main

        assert main(["verify", "--trials", "3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "3/3 trials exact" in out

    def test_verify_checks_both_apps(self, capsys):
        from repro.cli import main

        assert main(["verify", "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count(" 4-C: ") == 2 and out.count("3-MC: ") == 2

    @pytest.mark.parametrize("plant", ["edge-is-a-clique", "explorer-drops-4-vertex"])
    def test_a_planted_wrong_match_fails_the_check(self, capsys, monkeypatch, plant):
        """The oracle is an enumeration of vertex sets, not the engine: a
        wrong answer that the engine would give on a static graph too (an
        app that calls an edge a clique, an explorer that loses every
        4-vertex match) still fails the check."""
        from repro.apps import CliqueMining
        from repro.cli import main
        from repro.core.explore import Explorer

        if plant == "edge-is-a-clique":
            monkeypatch.setattr(CliqueMining, "match", lambda self, s: True)
        else:
            emit = Explorer._emit

            def lossy_emit(self, status, s):
                if len(s) != 4:
                    emit(self, status, s)

            monkeypatch.setattr(Explorer, "_emit", lossy_emit)
        assert main(["verify", "--trials", "5", "--quiet"]) == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out and "/5 trials exact" in out
        assert "5/5 trials exact" not in out

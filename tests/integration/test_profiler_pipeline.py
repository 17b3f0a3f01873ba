"""End-to-end exploration profiling, across backends and the CLI surface.

The acceptance contract (mirroring ``test_telemetry_pipeline.py``): the
same input stream yields **identical merged profile totals** on every
execution backend — every recorded quantity is an operation count, never a
clock read, so serial/process/simulated must agree exactly.  Also
covers the run report (nonzero pruning, filter rejections, p99, imbalance
on a seeded multi-window run), folded-stack export, and the ``mine
--profile-out/--report/--flame-out`` plus ``repro report`` CLI surface.
"""

import itertools
import json
import random

import pytest

from repro.apps import CliqueMining
from repro.cli import main
from repro.runtime.session import StreamingSession
from repro.telemetry.report import PROFILE_SCHEMA, report_from_document
from repro.types import Update

#: a K7 delivered over multiple windows: plenty of same-window pruning
EDGES = list(itertools.combinations(range(7), 2))


def seeded_updates(num_vertices=12, num_edges=48, deletions=6, seed=11):
    """A 2-window seeded stream with additions and deletions."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = rng.randrange(num_vertices), rng.randrange(num_vertices)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    ordered = sorted(edges)
    updates = [Update.add_edge(u, v) for u, v in ordered]
    updates.extend(
        Update.delete_edge(u, v) for u, v in ordered[:deletions]
    )
    return updates


def run_profiled(backend, updates=None, window_size=27):
    session = StreamingSession(
        CliqueMining(4, min_size=3),
        backend,
        window_size=window_size,
        num_workers=2,
        profile=True,
    )
    session.process(updates if updates is not None else seeded_updates())
    profile = session.collect_profile()
    report = session.run_report()
    session.close()
    return session, profile, report


class TestCrossBackendDeterminism:
    @pytest.mark.parametrize("backend", ["serial", "process", "simulated"])
    def test_profile_totals_identical_across_backends(self, backend):
        """The profile is a view of ``Metrics`` on every backend.  A third
        window of three tasks stays below the process backend's
        ``min_parallel``, so it runs on the inline engine alone."""
        updates = seeded_updates() + [
            Update.add_edge(u, v) for u, v in [(20, 21), (21, 22), (20, 22)]
        ]
        _, serial_profile, _ = run_profiled("serial", updates)
        session, other_profile, _ = run_profiled(backend, updates)
        assert [w.num_updates for w in session.window_stats] == [27, 27, 3]
        totals = other_profile.totals()
        assert totals == serial_profile.totals()
        m = session.metrics()
        assert (
            totals["filter_calls"],
            totals["filter_rejected"],
            totals["match_calls"],
            totals["attempts"],
            totals["expansions"],
            totals["new"] + totals["rem"],
        ) == (
            m.filter_calls,
            m.filter_calls - m.filter_passes,
            m.match_calls,
            m.can_expand_calls,
            m.expansions,
            m.emits,
        )
        assert totals["nodes"] == totals["expansions"] + totals["updates"]

    @pytest.mark.parametrize("backend", ["process", "simulated"])
    def test_per_update_records_identical_across_backends(self, backend):
        _, serial_profile, _ = run_profiled("serial")
        _, other_profile, _ = run_profiled(backend)
        serial_docs = [r.to_dict() for r in serial_profile.updates()]
        other_docs = [r.to_dict() for r in other_profile.updates()]
        assert other_docs == serial_docs


class TestRunReport:
    def test_seeded_run_report_is_nonzero_everywhere(self):
        session, profile, report = run_profiled("serial")
        totals = profile.totals()
        assert totals["pruned"] > 0, "canonicality pruning must be observed"
        assert totals["pruned_same_window"] > 0
        assert totals["filter_rejected"] > 0
        assert totals["new"] > 0 and totals["rem"] > 0
        assert report.latency.windows == len(session.window_stats) >= 2
        assert report.latency.p99_seconds > 0.0
        assert report.imbalance_index >= 1.0
        assert 0.0 < report.pruning_ratio < 1.0
        assert 0.0 < report.filter_reject_ratio < 1.0
        assert report.top_updates
        assert report.top_updates[0]["cost"] >= report.top_updates[-1]["cost"]

    def test_report_renders_key_lines(self):
        _, _, report = run_profiled("serial")
        text = report.render()
        for needle in (
            "p99",
            "canonicality-pruned",
            "imbalance",
            "hottest updates",
        ):
            assert needle in text

    @pytest.mark.parametrize(
        "store, held", [("mv", False), ("remote", True)]
    )
    def test_store_line_shows_held_copies_only_on_a_client(self, store, held):
        session = StreamingSession(
            CliqueMining(3, min_size=3),
            "serial",
            window_size=5,
            store=store,
            profile=True,
        )
        session.process(Update.add_edge(u, v) for u, v in EDGES)
        line = next(
            line
            for line in session.run_report().render().splitlines()
            if line.lstrip().startswith(f"store      {store}:")
        )
        session.close()
        assert line.endswith("delta facts")
        assert ("held copies" in line) == held
        assert "evictions" not in line

    def test_disabled_profiling_yields_empty_profile(self):
        session = StreamingSession(
            CliqueMining(3, min_size=3), "serial", window_size=5
        )
        session.process(Update.add_edge(u, v) for u, v in EDGES)
        profile = session.collect_profile()
        assert profile.num_updates() == 0
        report = session.run_report()
        assert "profiling was disabled" in report.render()
        session.close()

    def test_report_round_trips_through_document(self):
        session, profile, report = run_profiled("serial")
        from repro.telemetry.report import profile_document

        doc = json.loads(
            json.dumps(profile_document(profile, session.window_stats))
        )
        assert doc["schema"] == PROFILE_SCHEMA
        rebuilt = report_from_document(doc)
        assert rebuilt.totals == report.totals
        assert rebuilt.windows == report.windows
        assert rebuilt.latency == report.latency
        assert rebuilt.top_updates == report.top_updates

    def test_rejects_non_profile_document(self):
        with pytest.raises(ValueError, match="not a profile document"):
            report_from_document({"schema": "something/else"})


class TestFoldedExport:
    def test_session_exports_folded_stacks(self, tmp_path):
        from repro.telemetry import Telemetry

        session = StreamingSession(
            CliqueMining(3, min_size=3),
            "serial",
            window_size=5,
            telemetry=Telemetry(),
        )
        session.process(Update.add_edge(u, v) for u, v in EDGES)
        out = tmp_path / "flame.folded"
        with open(out, "w") as fh:
            stacks = session.export_folded(fh)
        session.close()
        lines = out.read_text().splitlines()
        assert stacks == len(lines) > 0
        weights = {}
        for line in lines:
            stack, weight = line.rsplit(" ", 1)
            weights[stack] = int(weight)
        assert "window;task" in weights
        assert all(w >= 0 for w in weights.values())
        assert lines == sorted(lines), "folded output must be deterministic"


class TestCliSurface:
    def _write_stream(self, tmp_path):
        stream = tmp_path / "updates.txt"
        lines = [f"a {u} {v}" for u, v in EDGES]
        stream.write_text("\n".join(lines) + "\n")
        return stream

    def test_mine_profile_report_flame(self, tmp_path, capsys):
        stream = self._write_stream(tmp_path)
        profile_out = tmp_path / "profile.json"
        flame_out = tmp_path / "flame.folded"
        rc = main(
            [
                "mine",
                "3-C",
                "--updates",
                str(stream),
                "--window",
                "5",
                "--quiet",
                "--report",
                "--profile-out",
                str(profile_out),
                "--flame-out",
                str(flame_out),
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "run report" in err
        assert "p99" in err
        doc = json.loads(profile_out.read_text())
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["totals"]["new"] > 0
        assert doc["window_stats"]
        assert flame_out.read_text().strip()

    def test_report_subcommand_from_exported_json(self, tmp_path, capsys):
        stream = self._write_stream(tmp_path)
        profile_out = tmp_path / "profile.json"
        assert (
            main(
                [
                    "mine",
                    "3-C",
                    "--updates",
                    str(stream),
                    "--window",
                    "5",
                    "--quiet",
                    "--profile-out",
                    str(profile_out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["report", str(profile_out)]) == 0
        out = capsys.readouterr().out
        assert "run report" in out and "imbalance" in out
        assert main(["report", str(profile_out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["totals"]["attempts"] > 0
        assert doc["latency"]["windows"] > 0

    def test_report_subcommand_rejects_bad_files_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "not_a_profile.json"
        bad.write_text('{"hello": 1}\n')
        assert main(["report", str(bad)]) == 1
        assert "not a profile document" in capsys.readouterr().err
        assert main(["report", str(tmp_path / "missing.json")]) == 1
        assert "missing.json" in capsys.readouterr().err

    def test_mine_summary_line_includes_p99(self, tmp_path, capsys):
        stream = self._write_stream(tmp_path)
        assert (
            main(
                ["mine", "3-C", "--updates", str(stream), "--window", "5", "--quiet"]
            )
            == 0
        )
        assert "p99" in capsys.readouterr().err

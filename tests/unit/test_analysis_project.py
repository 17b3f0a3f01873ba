"""Tests for the whole-program engine: loader, call graph, fixpoint, CLI."""

import textwrap

import pytest

from repro.analysis import main
from repro.analysis.callgraph import build_callgraph
from repro.analysis.dataflow import MONO, WALL, build_return_taint, fixpoint
from repro.analysis.project import load_project, module_name_for


def make_project(tmp_path, files):
    """Materialize ``{relative_path: source}`` under a ``repro`` root."""
    root = tmp_path / "repro"
    root.mkdir(parents=True, exist_ok=True)
    (root / "__init__.py").write_text("")
    for rel, source in files.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        for parent in target.relative_to(root).parents:
            if str(parent) != ".":
                init = root / parent / "__init__.py"
                if not init.exists():
                    init.write_text("")
        target.write_text(textwrap.dedent(source))
    return root


class TestLoader:
    def test_module_names_anchor_at_root(self, tmp_path):
        root = make_project(tmp_path, {"store/api.py": "x = 1\n"})
        assert module_name_for(root / "store" / "api.py", root) == "repro.store.api"
        assert module_name_for(root / "store" / "__init__.py", root) == "repro.store"

    def test_file_root_names_module_from_the_repro_anchor(self, tmp_path):
        root = make_project(tmp_path, {"net/wire.py": "x = 1\n"})
        target = root / "net" / "wire.py"
        assert module_name_for(target, target) == "repro.net.wire"

    def test_several_paths_load_as_one_project(self, tmp_path):
        root = make_project(tmp_path, {"a.py": "x = 1\n", "b/c.py": "y = 2\n"})
        tools = tmp_path / "tools"
        tools.mkdir()
        (tools / "d.py").write_text("z = 3\n")
        # a file inside an already-given directory is loaded once, under
        # the directory's name for it (alone it would be plain "d")
        project = load_project(root, tools, tools / "d.py")
        assert [ctx.module for ctx in project] == [
            "repro",
            "repro.a",
            "repro.b",
            "repro.b.c",
            "tools.d",
        ]

    def test_path_without_python_files_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no Python files under"):
            load_project(tmp_path / "missing")

    def test_iteration_is_sorted_by_module_name(self, tmp_path):
        root = make_project(
            tmp_path, {"zeta.py": "a = 1\n", "alpha.py": "b = 2\n", "mid.py": "c = 3\n"}
        )
        project = load_project(root)
        names = [ctx.module for ctx in project]
        assert names == sorted(names)
        assert "repro.alpha" in names and "repro.zeta" in names

    def test_syntax_error_becomes_rl000(self, tmp_path):
        root = make_project(tmp_path, {"broken.py": "def f(:\n"})
        project = load_project(root)
        assert [v.rule_id for v in project.syntax_errors] == ["RL000"]
        assert project.module("repro.broken") is None

    def test_identical_files_get_distinct_trees(self, tmp_path):
        # node-identity-keyed analyses (call targets) need per-module trees
        root = make_project(
            tmp_path, {"a.py": "value = 1\n", "b.py": "value = 1\n"}
        )
        project = load_project(root)
        assert project.module("repro.a").tree is not project.module("repro.b").tree


CALLGRAPH_FILES = {
    "util.py": """
        def helper():
            return 7
        """,
    "impl.py": """
        from repro.util import helper as aliased

        class Base:
            def hook(self):
                return 0

        class Sub(Base):
            def hook(self):
                return aliased()

        class Holder:
            def __init__(self, member: "Base"):
                self.member = member

            def poke(self):
                return self.member.hook()
        """,
    "factory.py": """
        from repro.impl import Base, Sub

        def make(kind):
            if kind == "sub":
                cls = Sub
            else:
                cls = Base
            return cls()
        """,
}


class TestCallGraph:
    @pytest.fixture()
    def graph(self, tmp_path):
        root = make_project(tmp_path, CALLGRAPH_FILES)
        return build_callgraph(load_project(root))

    def test_aliased_import_resolves(self, graph):
        assert "repro.util.helper" in graph.callees("repro.impl.Sub.hook")

    def test_method_dispatch_includes_subclass_overrides(self, graph):
        # a call through a Base-typed attribute may reach either override
        callees = graph.callees("repro.impl.Holder.poke")
        assert "repro.impl.Base.hook" in callees
        assert "repro.impl.Sub.hook" in callees

    def test_registry_indirection_reaches_constructors(self, graph):
        # the make_store pattern: cls = Impl; cls(**kwargs)
        callees = graph.callees("repro.factory.make")
        assert "repro.impl.Holder.__init__" not in callees
        # Base/Sub define no __init__, so the local-alias resolution has
        # no constructor to land on — but the aliases themselves resolved:
        assert graph.classes["repro.impl.Sub"].base_quals == ["repro.impl.Base"]

    def test_denylisted_names_produce_no_fallback_edge(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "box.py": """
                class Box:
                    def append(self, item):
                        return item

                def stuff(bag):
                    bag.append(1)
                """,
            },
        )
        graph = build_callgraph(load_project(root))
        assert graph.callees("repro.box.stuff") == ()

    def test_single_definer_fallback_resolves_unique_names(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "box.py": """
                class Box:
                    def unique_verb(self):
                        return 1

                def stuff(bag):
                    return bag.unique_verb()
                """,
            },
        )
        graph = build_callgraph(load_project(root))
        assert graph.callees("repro.box.stuff") == ("repro.box.Box.unique_verb",)


class TestFixpoint:
    def test_converges_on_a_cycle(self):
        # a -> b -> c -> a; a seed fact at a must reach every node
        edges = {"a": ["b"], "b": ["c"], "c": ["a"]}

        def transfer(node, facts):
            out = {"seed"} if node == "a" else set()
            for succ in edges[node]:
                out |= facts[succ]
            return out

        facts, rounds = fixpoint(sorted(edges), transfer)
        assert all(facts[n] == {"seed"} for n in edges)
        assert rounds <= len(edges) + 2

    def test_return_taint_terminates_on_mutual_recursion(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "loop.py": """
                import time

                def ping(n):
                    if n <= 0:
                        return time.time()
                    return pong(n - 1)

                def pong(n):
                    return ping(n - 1)
                """,
            },
        )
        taint = build_return_taint(load_project(root))
        assert WALL in taint.returns["repro.loop.ping"]
        assert WALL in taint.returns["repro.loop.pong"]

    def test_monotonic_and_wall_kinds_are_distinct(self, tmp_path):
        root = make_project(
            tmp_path,
            {
                "clocks.py": """
                import time

                def wall():
                    return time.time()

                def mono():
                    return time.perf_counter()
                """,
            },
        )
        taint = build_return_taint(load_project(root))
        assert taint.returns["repro.clocks.wall"] == frozenset({WALL})
        assert taint.returns["repro.clocks.mono"] == frozenset({MONO})


class TestDeterminism:
    def test_two_runs_produce_byte_identical_json(self, tmp_path, capsys):
        root = make_project(
            tmp_path,
            {
                "helper.py": "import time\n\ndef stamp():\n    return time.time()\n",
                "sink.py": (
                    "from repro.helper import stamp\n\n"
                    "def bump(counter):\n"
                    "    counter.inc(stamp())\n"
                ),
            },
        )
        reports = []
        for run in range(2):
            out = tmp_path / f"report-{run}.json"
            code = main(
[root.as_posix(), "--json-output", str(out)]
            )
            assert code == 1
            reports.append(out.read_bytes())
        capsys.readouterr()
        assert reports[0] == reports[1]

    def test_json_report_lists_all_rule_ids(self, tmp_path, capsys):
        import json

        root = make_project(tmp_path, {"ok.py": "x = 1\n"})
        out = tmp_path / "report.json"
        assert main([root.as_posix(), "--json-output", str(out)]) == 0
        capsys.readouterr()
        doc = json.loads(out.read_text())
        for rule_id in ["RL001", "RL007", "RL008", "RL009", "RL010", "RL011"]:
            assert rule_id in doc["rules"]


class TestProjectCli:
    def test_default_mode_runs_project_rules(self, tmp_path, capsys):
        root = make_project(
            tmp_path,
            {
                "net/handler.py": (
                    "def eat(fn):\n"
                    "    try:\n"
                    "        return fn()\n"
                    "    except Exception:\n"
                    "        return None\n"
                ),
            },
        )
        assert main([root.as_posix()]) == 1
        assert "RL010" in capsys.readouterr().out

    def test_default_mode_runs_module_rules_with_tree_module_names(
        self, tmp_path, capsys
    ):
        # a directory root names its modules from the root's parent, so
        # module-scoped rules judge net/ as repro.net, not by guesswork
        root = make_project(
            tmp_path,
            {
                "net/transport.py": "import socket\n",
                "store/leak.py": "import socket\n",
            },
        )
        assert main([root.as_posix()]) == 1
        out = capsys.readouterr().out
        assert "leak.py" in out and "RL007" in out
        assert "transport.py" not in out

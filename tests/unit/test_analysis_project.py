"""Tests for the whole-program engine: loader, class index, CLI."""

import textwrap

import pytest

from repro.analysis import main
from repro.analysis.classindex import ClassIndex
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
        # findings anchor at nodes of their own module's tree
        root = make_project(
            tmp_path, {"a.py": "value = 1\n", "b.py": "value = 1\n"}
        )
        project = load_project(root)
        assert project.module("repro.a").tree is not project.module("repro.b").tree


CLASS_INDEX_FILES = {
    "proto.py": """
        import abc

        class Base(abc.ABC):
            @abc.abstractmethod
            def hook(self):
                ...

            @property
            def size(self):
                return 0

            @staticmethod
            def make():
                return None
        """,
    "impl.py": """
        from repro.proto import Base as Aliased
        from repro import proto

        class Sub(Aliased):
            def hook(self):
                return 1

        class Leaf(Sub, proto.Base):
            pass

        class Foreign(dict):
            pass
        """,
}


class TestClassIndex:
    @pytest.fixture()
    def index(self, tmp_path):
        root = make_project(tmp_path, CLASS_INDEX_FILES)
        return ClassIndex(load_project(root))

    def test_aliased_import_resolves(self, index):
        # ``from repro.proto import Base as Aliased`` and ``proto.Base``
        # both name the class defined in repro.proto
        assert index.classes["repro.impl.Sub"].base_quals == ["repro.proto.Base"]
        assert index.classes["repro.impl.Leaf"].base_quals == [
            "repro.impl.Sub",
            "repro.proto.Base",
        ]

    def test_subclass_ancestry_reaches_the_protocol(self, index):
        # RL011 finds the abstract method a subclass overrides via the MRO
        assert index.mro("repro.impl.Leaf") == [
            "repro.impl.Leaf",
            "repro.impl.Sub",
            "repro.proto.Base",
        ]

    def test_non_project_bases_are_left_out(self, index):
        assert index.classes["repro.impl.Foreign"].base_quals == []
        assert index.classes["repro.proto.Base"].base_quals == []

    def test_method_facts(self, index):
        methods = index.classes["repro.proto.Base"].methods
        assert methods["hook"].is_abstract and not methods["hook"].is_property
        assert methods["size"].is_property and not methods["size"].is_abstract
        assert methods["make"].is_static
        assert not index.classes["repro.impl.Sub"].methods["hook"].is_abstract


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
        assert sorted(doc["rules"]) == [
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL010",
            "RL011",
        ]


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

"""Fixture tests run over a whole materialized tree: RL001 across
modules, RL010 and the project-scope rule RL011.

Each rule gets a seeded positive, a negative (the idiomatic version that
must stay clean), and a suppression case (``# repro: ignore[RLxxx]`` on
the reported line).
"""

import textwrap
from pathlib import Path

from repro.analysis.core import lint_project


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


def run(tmp_path, files, select):
    root = make_project(tmp_path, files)
    violations, _ = lint_project(root.as_posix())
    return [v for v in violations if v.rule_id in select]


# -- RL001 across modules -----------------------------------------------------

LAUNDERED_COUNTER = {
    "clockutil.py": """
        import time

        def stamp():
            return time.time()
        """,
    "sink.py": """
        from repro.clockutil import stamp

        def bump(counter):
            value = stamp()
            counter.inc(value)
        """,
}


def paths(violations):
    return [Path(v.path).name for v in violations]


class TestLaunderedClockRL001:
    """A wall clock or global RNG behind a helper in another module is
    flagged where it is read, in the helper: no caller can launder it."""

    def test_laundered_wall_clock_into_counter(self, tmp_path):
        violations = run(tmp_path, LAUNDERED_COUNTER, ("RL001",))
        assert paths(violations) == ["clockutil.py"]
        assert "time.time()" in violations[0].message

    def test_rng_through_helper_into_payload(self, tmp_path):
        files = {
            "rng.py": """
                import random

                def roll():
                    return random.randint(0, 10)
                """,
            "wire.py": """
                from repro.rng import roll

                def encode_payload(op, args):
                    return bytes()

                def ship():
                    return encode_payload("op", roll())
                """,
        }
        violations = run(tmp_path, files, ("RL001",))
        assert paths(violations) == ["rng.py"]
        assert "process-global RNG" in violations[0].message

    def test_tainted_value_reaching_emit(self, tmp_path):
        files = {
            "clockutil.py": """
                import time

                def stamp():
                    return time.time()
                """,
            "stream.py": """
                from repro.clockutil import stamp

                def publish_result(topic, subgraph):
                    topic.emit((subgraph, stamp()))
                """,
        }
        assert paths(run(tmp_path, files, ("RL001",))) == ["clockutil.py"]

    def test_monotonic_duration_into_histogram_is_clean(self, tmp_path):
        files = {
            "timing.py": """
                import time

                def elapsed(start):
                    return time.perf_counter() - start

                def observe(histogram, start):
                    histogram.observe(elapsed(start))
                """,
        }
        assert run(tmp_path, files, ("RL001",)) == []

    def test_monotonic_duration_into_emit_is_clean(self, tmp_path):
        # durations on streams are telemetry data, not result payload
        files = {
            "timing.py": """
                import time

                def elapsed(start):
                    return time.perf_counter() - start

                def report(topic, start):
                    topic.emit(elapsed(start))
                """,
        }
        assert run(tmp_path, files, ("RL001",)) == []

    def test_direct_clock_in_same_function_is_flagged_there(self, tmp_path):
        files = {
            "direct.py": """
                import time

                def bump(counter):
                    counter.inc(time.time())
                """,
        }
        violations = run(tmp_path, files, ("RL001",))
        assert {(Path(v.path).name, v.line) for v in violations} == {("direct.py", 5)}

    def test_suppression_on_helper_line(self, tmp_path):
        files = dict(LAUNDERED_COUNTER)
        files["clockutil.py"] = files["clockutil.py"].replace(
            "return time.time()", "return time.time()  # repro: ignore[RL001]"
        )
        assert run(tmp_path, files, ("RL001",)) == []


# -- RL010 -------------------------------------------------------------------


class TestRL010:
    def test_swallowed_application_error_in_net(self, tmp_path):
        files = {
            "net/handler.py": """
                def eat(fn):
                    try:
                        return fn()
                    except Exception:
                        return None
                """,
        }
        violations = run(tmp_path, files, ("RL010",))
        assert [v.rule_id for v in violations] == ["RL010"]
        assert "ApplicationError" in violations[0].message

    def test_bare_except_banned_outside_net_too(self, tmp_path):
        files = {
            "runtime/loopy.py": """
                def spin(fn):
                    try:
                        fn()
                    except:
                        pass
                """,
        }
        violations = run(tmp_path, files, ("RL010",))
        assert [v.rule_id for v in violations] == ["RL010"]
        assert "bare" in violations[0].message

    def test_raw_oserror_handled_in_place_in_net(self, tmp_path):
        files = {
            "net/sockety.py": """
                def read(conn):
                    try:
                        return conn.recv(4)
                    except OSError as exc:
                        text = str(exc)
                        return text
                """,
        }
        violations = run(tmp_path, files, ("RL010",))
        assert [v.rule_id for v in violations] == ["RL010"]
        assert "taxonomy" in violations[0].message

    def test_translation_into_taxonomy_is_clean(self, tmp_path):
        files = {
            "net/sockety.py": """
                class TransportError(Exception):
                    pass

                def read(conn):
                    try:
                        return conn.recv(4)
                    except OSError as exc:
                        raise TransportError("read failed") from exc
                """,
        }
        assert run(tmp_path, files, ("RL010",)) == []

    def test_pure_cleanup_is_clean(self, tmp_path):
        files = {
            "net/sockety.py": """
                def close(conn):
                    try:
                        conn.shutdown()
                    except OSError:
                        pass
                """,
        }
        assert run(tmp_path, files, ("RL010",)) == []

    def test_narrow_handlers_outside_net_are_clean(self, tmp_path):
        files = {
            "store/reader.py": """
                def read(d, key):
                    try:
                        return d[key]
                    except KeyError:
                        return None
                """,
        }
        assert run(tmp_path, files, ("RL010",)) == []

    def test_test_modules_may_use_bare_except(self, tmp_path):
        files = {
            "testkit/harness.py": """
                def swallow(fn):
                    try:
                        fn()
                    except:
                        pass
                """,
        }
        assert run(tmp_path, files, ("RL010",)) == []

    def test_suppression(self, tmp_path):
        files = {
            "net/handler.py": """
                def eat(fn):
                    try:
                        return fn()
                    except Exception:  # repro: ignore[RL010]
                        return None
                """,
        }
        assert run(tmp_path, files, ("RL010",)) == []

    # -- pipelined dispatch (PR 10) -----------------------------------

    def test_pipelined_worker_break_then_cleanup_is_clean(self, tmp_path):
        # the pipelined server worker: a send that fails on a dead
        # connection stops draining (break) and post-loop code flips the
        # shared open flag — the handler itself stays pure cleanup
        files = {
            "net/pipeline.py": """
                def worker(queue, conn, state):
                    while queue:
                        request = queue.popleft()
                        try:
                            conn.sendall(request)
                        except OSError:
                            break
                    state["open"] = False
                """,
        }
        assert run(tmp_path, files, ("RL010",)) == []

    def test_pipelined_worker_swallowing_and_continuing_flags(self, tmp_path):
        # absorbing the transport fault and carrying on with real work
        # in the handler is not cleanup: translate or re-raise
        files = {
            "net/pipeline.py": """
                def worker(queue, conn, replies):
                    while queue:
                        request = queue.popleft()
                        try:
                            conn.sendall(request)
                        except OSError as exc:
                            replies.append(str(exc))
                """,
        }
        violations = run(tmp_path, files, ("RL010",))
        assert [v.rule_id for v in violations] == ["RL010"]


# -- RL011 -------------------------------------------------------------------

PROTOCOL = """
    import abc

    class Store(abc.ABC):
        @abc.abstractmethod
        def add_edge(self, u, v, ts, label=None):
            ...

        @abc.abstractmethod
        def reclaim(self, horizon):
            ...

        @property
        @abc.abstractmethod
        def latest_timestamp(self):
            ...
    """


class TestRL011:
    def test_signature_drift_is_flagged(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                from repro.proto import Store

                class Drifted(Store):
                    def add_edge(self, source, dest, ts, label=None):
                        pass

                    def reclaim(self, horizon):
                        pass

                    @property
                    def latest_timestamp(self):
                        return 0
                """,
        }
        violations = run(tmp_path, files, ("RL011",))
        assert [v.rule_id for v in violations] == ["RL011"]
        assert "source, dest, ts, label" in violations[0].message

    def test_missing_abstract_method_is_flagged(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                from repro.proto import Store

                class Incomplete(Store):
                    def add_edge(self, u, v, ts, label=None):
                        pass

                    @property
                    def latest_timestamp(self):
                        return 0
                """,
        }
        violations = run(tmp_path, files, ("RL011",))
        assert [v.rule_id for v in violations] == ["RL011"]
        assert "reclaim" in violations[0].message

    def test_property_method_mismatch_is_flagged(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                from repro.proto import Store

                class Methodical(Store):
                    def add_edge(self, u, v, ts, label=None):
                        pass

                    def reclaim(self, horizon):
                        pass

                    def latest_timestamp(self):
                        return 0
                """,
        }
        violations = run(tmp_path, files, ("RL011",))
        assert [v.rule_id for v in violations] == ["RL011"]
        assert "property" in violations[0].message

    def test_required_parameter_dropped_to_optional_stays_optional(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                from repro.proto import Store

                class Strict(Store):
                    def add_edge(self, u, v, ts, label):
                        pass

                    def reclaim(self, horizon):
                        pass

                    @property
                    def latest_timestamp(self):
                        return 0
                """,
        }
        violations = run(tmp_path, files, ("RL011",))
        assert [v.rule_id for v in violations] == ["RL011"]
        assert "optional" in violations[0].message

    def test_conforming_implementation_is_clean(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                from repro.proto import Store

                class Faithful(Store):
                    def add_edge(self, u, v, ts, label=None, extra=8):
                        pass

                    def reclaim(self, horizon):
                        pass

                    @property
                    def latest_timestamp(self):
                        return 0
                """,
        }
        assert run(tmp_path, files, ("RL011",)) == []

    def test_drift_below_a_concrete_implementation_is_flagged(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                from repro.proto import Store

                class Faithful(Store):
                    def add_edge(self, u, v, ts, label=None):
                        pass

                    def reclaim(self, horizon):
                        pass

                    @property
                    def latest_timestamp(self):
                        return 0

                class Drifted(Faithful):
                    def reclaim(self, cutoff, extra):
                        pass
                """,
        }
        violations = run(tmp_path, files, ("RL011",))
        assert [v.rule_id for v in violations] == ["RL011"]
        assert "repro.impl.Drifted.reclaim" in violations[0].message
        assert "repro.proto.Store.reclaim" in violations[0].message

    def test_abstract_intermediate_is_not_flagged_for_completeness(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                import abc
                from repro.proto import Store

                class Middle(Store):
                    @abc.abstractmethod
                    def extra_hook(self):
                        ...

                    def reclaim(self, horizon):
                        pass
                """,
        }
        assert run(tmp_path, files, ("RL011",)) == []

    def test_kwargs_covers_keyword_surface(self, tmp_path):
        files = {
            "proto.py": """
                import abc

                class Backend(abc.ABC):
                    @abc.abstractmethod
                    def run_tasks(self, tasks, *, deadline=None):
                        ...
                """,
            "impl.py": """
                from repro.proto import Backend

                class Forwarding(Backend):
                    def run_tasks(self, tasks, **kwargs):
                        return []
                """,
        }
        assert run(tmp_path, files, ("RL011",)) == []

    def test_protocol_named_through_a_module_alias_is_checked(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                from repro import proto as api

                class Drifted(api.Store):
                    def add_edge(self, source, dest, ts, label=None):
                        pass

                    def reclaim(self, horizon):
                        pass

                    @property
                    def latest_timestamp(self):
                        return 0
                """,
        }
        violations = run(tmp_path, files, ("RL011",))
        assert [v.rule_id for v in violations] == ["RL011"]
        assert "repro.proto.Store.add_edge" in violations[0].message

    def test_drift_below_an_abstract_intermediate_is_flagged(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                import abc
                from repro.proto import Store

                class Middle(Store):
                    @abc.abstractmethod
                    def extra_hook(self):
                        ...

                class Leaf(Middle):
                    def add_edge(self, source, dest, ts, label=None):
                        pass

                    def reclaim(self, horizon):
                        pass

                    def extra_hook(self):
                        pass

                    @property
                    def latest_timestamp(self):
                        return 0
                """,
        }
        violations = run(tmp_path, files, ("RL011",))
        assert [v.rule_id for v in violations] == ["RL011"]
        assert "repro.impl.Leaf.add_edge" in violations[0].message

    def test_suppression_on_class_line(self, tmp_path):
        files = {
            "proto.py": PROTOCOL,
            "impl.py": """
                from repro.proto import Store

                class Drifted(Store):
                    def add_edge(self, source, dest, ts, label=None):  # repro: ignore[RL011]
                        pass

                    def reclaim(self, horizon):
                        pass

                    @property
                    def latest_timestamp(self):
                        return 0
                """,
        }
        assert run(tmp_path, files, ("RL011",)) == []

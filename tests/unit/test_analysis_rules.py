"""Fixture-verified true positives and true negatives for the module rules.

Each rule gets at least one snippet it MUST flag and one it MUST NOT.
Snippets are linted through :func:`repro.analysis.lint_source` with
synthetic paths, so module scoping (RL004, RL006, RL007) can be exercised
without touching real files.
"""

import textwrap

import pytest

from repro.analysis import lint_source
from repro.analysis.core import SYNTAX_RULE_ID
from repro.analysis.reporters import to_json, to_json_document

HOT = "src/repro/core/_fixture.py"
COLD = "src/repro/util/_fixture.py"


def rules_hit(source, path="src/repro/runtime/_fixture.py"):
    source = textwrap.dedent(source)
    return sorted({v.rule_id for v in lint_source(source, path)})


class TestDeterminismRL001:
    def test_flags_wall_clock_call(self):
        src = """
            import time

            def stamp():
                return time.time()
        """
        assert rules_hit(src) == ["RL001"]

    def test_flags_module_random(self):
        src = """
            import random

            def pick(items):
                return random.choice(items)
        """
        assert rules_hit(src) == ["RL001"]

    def test_flags_set_iteration(self):
        src = """
            def order(vertices):
                return [v for v in {1, 2, 3}]
        """
        assert rules_hit(src) == ["RL001"]

    def test_flags_function_local_time_import(self):
        src = """
            def measure():
                import time
                return 1
        """
        assert rules_hit(src) == ["RL001"]

    def test_flags_monotonic_clock_feeding_counter(self):
        src = """
            import time

            def account(counter):
                elapsed = time.perf_counter()
                counter.inc(elapsed)
        """
        assert rules_hit(src) == ["RL001"]

    def test_flags_aliased_wall_clock(self):
        src = """
            import time as _t

            def stamp(counter):
                now = _t.time()
                counter.inc(now)
        """
        assert rules_hit(src) == ["RL001"]

    def test_flags_from_import_of_clock(self):
        src = """
            from time import time as now

            def stamp():
                return now()
        """
        assert rules_hit(src) == ["RL001"]

    @pytest.mark.parametrize(
        "src",
        [
            """
            import time

            def elapsed(start):
                return time.perf_counter() - start

            def account(counter, start):
                counter.inc(elapsed(start))
            """,
            """
            import time

            class Timed:
                def _now(self):
                    now = time.monotonic()
                    return now

                def account(self, metrics):
                    metrics.expansions += self._now()
            """,
            """
            import time

            def account(counter, start):
                taken = elapsed(start)
                counter.set_total(taken)

            def elapsed(start):
                return _read() - start

            def _read():
                return time.perf_counter_ns()
            """,
            """
            import time

            def account(counter):
                start = time.perf_counter()

                def later():
                    counter.inc(start)

                return later
            """,
            """
            import time

            def _count(registry, value):
                registry.counter("x_total").set_total(value)

            def _count_twice(registry, total):
                _count(registry, total)

            def account(registry):
                _count_twice(registry, total=time.perf_counter())
            """,
        ],
        ids=["helper", "method", "helper-of-helper", "closure", "argument"],
    )
    def test_flags_monotonic_reading_laundered_through_a_helper(self, src):
        # the reading is legal where it is taken; feeding it to a counter
        # from a same-module helper's return value is not
        assert rules_hit(src) == ["RL001"]

    def test_allows_seeded_rng_and_gauge_timing(self):
        src = """
            import random
            import time

            def simulate(seed, gauge):
                rng = random.Random(seed)
                start = time.perf_counter()
                value = rng.randint(0, 10)
                gauge.set(time.perf_counter() - start)
                return value
        """
        assert rules_hit(src) == []

    def test_allows_sorted_set_iteration(self):
        src = """
            def order(vertices):
                return [v for v in sorted({1, 2, 3})]
        """
        assert rules_hit(src) == []


class TestProcessPurityRL002:
    def test_flags_lambda_target(self):
        src = """
            def run(ctx, items):
                worker = ctx.Process(target=lambda: items.pop())
                worker.start()
        """
        assert rules_hit(src) == ["RL002"]

    def test_flags_nested_function_target(self):
        src = """
            def run(ctx, items):
                def work(conn):
                    conn.send(items)
                worker = ctx.Process(target=work, args=(None,))
                worker.start()
        """
        assert rules_hit(src) == ["RL002"]

    def test_flags_global_in_target(self):
        src = """
            import multiprocessing

            STATE = None

            def _work(conn, x):
                global STATE
                STATE = x
                conn.send(x)

            def run(conn, x):
                multiprocessing.Process(target=_work, args=(conn, x)).start()
        """
        assert rules_hit(src) == ["RL002"]

    def test_allows_module_level_target(self):
        # the process backend's shape: a module-level entry point that
        # ships everything through its arguments and its one reply
        src = """
            def _slice_worker(conn, *slice_args):
                reply = sum(slice_args)
                with conn:
                    conn.send(reply)

            def run(ctx, sender, tasks):
                worker = ctx.Process(target=_slice_worker, args=(sender, *tasks))
                worker.start()
        """
        assert rules_hit(src) == []

    def test_attribute_target_is_out_of_scope(self):
        # a bound method or another module's function resolves across
        # modules; the rule judges only names this module defines
        src = """
            def run(ctx, runner):
                ctx.Process(target=runner.work).start()
        """
        assert rules_hit(src) == []

    def test_other_constructors_are_out_of_scope(self):
        # only Process(target=...) forks; a thread target shares the process
        src = """
            import threading

            def run(items):
                threading.Thread(target=lambda: items.pop()).start()
        """
        assert rules_hit(src) == []


class TestLockDisciplineRL003:
    def test_flags_unlocked_write_in_lock_owning_class(self):
        src = """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def set(self, value):
                    self.value = value
        """
        assert rules_hit(src) == ["RL003"]

    def test_allows_write_under_lock(self):
        src = """
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def set(self, value):
                    with self._lock:
                        self.value = value
        """
        assert rules_hit(src) == []

    def test_lockless_class_is_exempt(self):
        src = """
            class Box:
                def __init__(self):
                    self.value = 0

                def set(self, value):
                    self.value = value
        """
        assert rules_hit(src) == []

    def test_allows_reentrant_self_acquisition(self):
        src = """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.RLock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """
        assert rules_hit(src) == []

    def test_flags_nonreentrant_self_acquisition(self):
        src = """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """
        violations = lint_source(textwrap.dedent(src), "src/repro/runtime/_f.py")
        assert [(v.rule_id, v.line) for v in violations] == [("RL003", 10)]
        assert "self.inner() takes it again" in violations[0].message

    def test_flags_self_acquisition_through_a_second_self_method(self):
        src = """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        return self.middle()

                def middle(self):
                    return self.inner()

                def inner(self):
                    with self._lock:
                        pass
        """
        assert rules_hit(src) == ["RL003"]

    def test_flags_directly_nested_acquisition(self):
        src = """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()

                def twice(self):
                    with self._lock:
                        with self._lock:
                            pass
        """
        assert rules_hit(src) == ["RL003"]

    def test_allows_acquisition_deferred_to_a_nested_def(self):
        # the closure runs later, after the with block released the lock
        src = """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()

                def schedule(self, pool):
                    with self._lock:
                        pool.submit(lambda: self.inner())

                def inner(self):
                    with self._lock:
                        pass
        """
        assert rules_hit(src) == []

    def test_allows_another_objects_lock_under_a_held_lock(self):
        src = """
            import threading

            class A:
                def __init__(self, b):
                    self._lock = threading.Lock()
                    self.b = b

                def use(self):
                    with self._lock:
                        self.b.hit()

            class B:
                def __init__(self):
                    self._lock = threading.Lock()

                def hit(self):
                    with self._lock:
                        pass
        """
        assert rules_hit(src) == []

    def test_allows_self_acquisition_justified_by_suppression(self):
        src = """
            import threading

            class Server:
                def __init__(self):
                    self._lock = threading.Lock()

                def outer(self):
                    with self._lock:
                        self.inner()  # repro: ignore[RL003]

                def inner(self):
                    with self._lock:
                        pass
        """
        assert rules_hit(src) == []

    def test_allows_write_justified_by_suppression(self):
        src = """
            import threading

            class SingleOwner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def set(self, value):
                    self.value = value  # repro: ignore[RL003]
        """
        assert rules_hit(src) == []


class TestSpanConstructionRL004:
    def test_flags_direct_span_construction(self):
        src = """
            from repro.telemetry import Span

            def trace(tracer):
                return Span(tracer, "manual", {}, False)
        """
        assert rules_hit(src, path=COLD) == ["RL004"]

    def test_flags_span_record_in_hot_path(self):
        src = """
            from repro.telemetry.trace import SpanRecord

            def push(tracer, start, end):
                tracer.absorb([SpanRecord(1, None, "push", start, end, {})])
        """
        assert rules_hit(src, path=HOT) == ["RL004"]

    def test_flags_null_span_through_a_module_attribute(self):
        src = """
            from repro.telemetry import trace

            def quiet():
                return trace.NullSpan()
        """
        assert rules_hit(src, path="src/repro/net/server.py") == ["RL004"]

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/telemetry/__init__.py",
            "src/repro/telemetry/registry.py",
            "src/repro/telemetry/bridge.py",
            "src/repro/analysis/rules.py",
        ],
    )
    def test_flags_construction_anywhere_but_trace(self, path):
        # only trace.py is exempt: the façade, registry and bridge build no
        # spans, and neither does the linter
        src = """
            from repro.telemetry.trace import Span

            def wrap(tracer):
                return Span(tracer, "metric", {})
        """
        assert rules_hit(src, path=path) == ["RL004"]

    def test_allows_construction_in_the_trace_module(self):
        src = """
            class Tracer:
                def span(self, name, **attrs):
                    return Span(self, name, attrs)

            NULL_SPAN = NullSpan()
        """
        assert rules_hit(src, path="src/repro/telemetry/trace.py") == []

    def test_allows_spans_opened_through_the_tracer(self):
        src = """
            def push(self, record, tracer):
                with tracer.span("push", size=len(record)):
                    tracer.record("push.done", 0, 1)
        """
        assert rules_hit(src, path=HOT) == []


class TestAlgorithmPurityRL005:
    def test_flags_io_in_filter(self):
        src = """
            from repro.core.api import MiningAlgorithm

            class Debugging(MiningAlgorithm):
                def filter(self, subgraph, change):
                    print(subgraph)
                    return True
        """
        assert rules_hit(src) == ["RL005"]

    def test_flags_argument_mutation_in_process(self):
        src = """
            from repro.core.api import MiningAlgorithm

            class Mutating(MiningAlgorithm):
                def process(self, subgraph):
                    subgraph.add_vertex(0)
        """
        assert rules_hit(src) == ["RL005"]

    def test_flags_self_mutation_in_match(self):
        src = """
            from repro.core.api import MiningAlgorithm

            class Stateful(MiningAlgorithm):
                def match(self, subgraph):
                    self.seen = subgraph
                    return True
        """
        assert rules_hit(src) == ["RL005"]

    def test_pure_algorithm_and_unrelated_class_pass(self):
        src = """
            from repro.core.api import MiningAlgorithm

            class Pure(MiningAlgorithm):
                def filter(self, subgraph, change):
                    return len(subgraph.vertices) <= 4

                def process(self, subgraph):
                    return tuple(sorted(subgraph.vertices))

            class NotAnAlgorithm:
                def process(self, batch):
                    batch.append(1)
        """
        assert rules_hit(src) == []


class TestStoreEncapsulationRL006:
    def test_flags_records_access_outside_store(self):
        src = """
            def gc_pass(store, horizon):
                for v, record in store._records.items():
                    pass
        """
        assert rules_hit(src, path="src/repro/streaming/_fixture.py") == [
            "RL006"
        ]

    def test_flags_latest_ts_write_outside_store(self):
        src = """
            def rewind(store):
                store._latest_ts = 0
        """
        assert rules_hit(src, path="src/repro/runtime/_fixture.py") == ["RL006"]

    def test_flags_shard_records_access(self):
        src = """
            def peek(store):
                return store._shard_records[0]
        """
        assert rules_hit(src, path="src/repro/core/_fixture.py") == ["RL006"]

    def test_store_modules_are_exempt(self):
        src = """
            def reclaim(store, horizon):
                for v, record in store._records.items():
                    pass
                store._latest_ts = 0
        """
        assert rules_hit(src, path="src/repro/store/_fixture.py") == []

    def test_protocol_access_passes(self):
        src = """
            def snapshot(store, ts):
                return [store.get_record(v) for v in store.vertices()]

            def gc_pass(store, horizon):
                return store.reclaim(horizon).reclaimed
        """
        assert rules_hit(src, path="src/repro/streaming/_fixture.py") == []

    def test_unrelated_private_attrs_pass(self):
        src = """
            class Buffered:
                def __init__(self):
                    self._buffer = []

                def push(self, item):
                    self._buffer.append(item)
        """
        assert rules_hit(src, path="src/repro/dataflow/_fixture.py") == []


class TestNetEncapsulationRL007:
    def test_flags_socket_import_outside_net(self):
        src = """
            import socket

            def dial(host, port):
                return socket.create_connection((host, port))
        """
        assert rules_hit(src, path="src/repro/runtime/_fixture.py") == ["RL007"]

    def test_flags_from_socket_import(self):
        src = """
            from socket import create_connection

            def dial(host, port):
                return create_connection((host, port))
        """
        assert rules_hit(src, path="src/repro/streaming/_fixture.py") == [
            "RL007"
        ]

    def test_flags_selectors_import(self):
        src = """
            import selectors

            def make_selector():
                return selectors.DefaultSelector()
        """
        assert rules_hit(src, path="src/repro/dataflow/_fixture.py") == ["RL007"]

    def test_net_modules_are_exempt(self):
        src = """
            import socket
            import selectors

            def serve(sock):
                return selectors.DefaultSelector()
        """
        assert rules_hit(src, path="src/repro/net/_fixture.py") == []

    def test_rpc_layer_access_passes(self):
        src = """
            from repro.net import NetStoreClient, RpcClient

            def connect(addr):
                return NetStoreClient(addr)
        """
        assert rules_hit(src, path="src/repro/runtime/_fixture.py") == []

    def test_unrelated_socket_like_names_pass(self):
        src = """
            def socket_path(base):
                return base + "/control.socket"
        """
        assert rules_hit(src, path="src/repro/util/_fixture.py") == []

    # -- pipelined fetch-ahead (PR 10) --------------------------------

    def test_flags_hand_rolled_pipeline_outside_net(self):
        # the pipelined channel lives in repro.net.rpc; a caller wanting
        # fetch-ahead goes through RpcClient.submit, never by opening
        # its own socket to interleave request frames
        src = """
            import socket

            def pipeline(host, port, requests):
                conn = socket.create_connection((host, port))
                for request in requests:
                    conn.sendall(request)
                return conn
        """
        assert rules_hit(src, path="src/repro/streaming/_fixture.py") == [
            "RL007"
        ]

    def test_submit_based_fetch_ahead_passes(self):
        src = """
            from repro.net import NetStoreClient

            def fetch_ahead(addr, frontier):
                client = NetStoreClient(addr, batch_size=64)
                return client.prefetch(frontier)
        """
        assert rules_hit(src, path="src/repro/runtime/_fixture.py") == []


class TestExceptionTaxonomyRL010:
    def test_one_module_is_enough(self):
        # the full fixture set runs over a tree in test_analysis_project_rules
        src = """
            def eat(fn):
                try:
                    return fn()
                except Exception:
                    return None
        """
        assert rules_hit(src, "src/repro/net/_fixture.py") == ["RL010"]
        assert rules_hit(src, "src/repro/store/_fixture.py") == []


class TestSyntaxErrors:
    def test_unparsable_file_reports_rl000(self):
        assert rules_hit("def broken(:\n") == [SYNTAX_RULE_ID]


class TestJsonReport:
    def _violations(self):
        src = textwrap.dedent(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        return lint_source(src, "src/repro/runtime/_fixture.py")

    def test_document_shape_and_counts(self):
        violations = self._violations()
        doc = to_json_document(violations, files_checked=1)
        assert doc["version"] == 1
        assert doc["files_checked"] == 1
        assert doc["counts"] == {"RL001": len(violations)}
        assert all(
            set(v) == {"path", "line", "col", "rule", "message"}
            for v in doc["violations"]
        )

    def test_rendering_is_stable(self):
        violations = self._violations()
        first = to_json(violations, files_checked=1)
        second = to_json(list(reversed(violations)), files_checked=1)
        assert first == second
        assert first.endswith("\n")

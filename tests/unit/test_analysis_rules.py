"""Fixture-verified true positives and true negatives for RL001-RL007.

Each rule gets at least one snippet it MUST flag and one it MUST NOT.
Snippets are linted through :func:`repro.analysis.lint_source` with
synthetic paths, so hot-path scoping (RL004) can be exercised without
touching real files.
"""

import textwrap

from repro.analysis import LintConfig, lint_source
from repro.analysis.core import SYNTAX_RULE_ID
from repro.analysis.reporters import to_json, to_json_document

HOT = "src/repro/core/_fixture.py"
COLD = "src/repro/util/_fixture.py"


def rules_hit(source, path="src/repro/runtime/_fixture.py", config=None):
    source = textwrap.dedent(source)
    return sorted({v.rule_id for v in lint_source(source, path, config)})


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
    def test_flags_lambda_task(self):
        src = """
            def run(pool, items):
                return pool.map(lambda x: x + 1, items)
        """
        assert rules_hit(src) == ["RL002"]

    def test_flags_nested_function_task(self):
        src = """
            def run(pool, items):
                def work(x):
                    return x + 1
                return pool.map(work, items)
        """
        assert rules_hit(src) == ["RL002"]

    def test_flags_global_mutation_in_task(self):
        src = """
            STATE = None

            def _task(x):
                global STATE
                STATE = x
                return x

            def run(pool, items):
                return pool.map(_task, items)
        """
        assert rules_hit(src) == ["RL002"]

    def test_allows_module_level_task_and_initializer_globals(self):
        src = """
            STATE = None

            def _init(payload):
                global STATE
                STATE = payload

            def _task(x):
                return (STATE, x)

            def run(ctx, items, payload):
                with ctx.Pool(initializer=_init, initargs=(payload,)) as pool:
                    return pool.map(_task, items)
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

    def test_config_exemption(self):
        src = """
            import threading

            class SingleOwner:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.value = 0

                def set(self, value):
                    self.value = value
        """
        config = LintConfig(thread_safe_classes=("SingleOwner",))
        assert rules_hit(src, config=config) == []


class TestTelemetryNullObjectRL004:
    def test_flags_none_branch_in_hot_path(self):
        src = """
            def push(self, record, tracer):
                if tracer is not None:
                    tracer.record("push", 0, 1)
        """
        assert rules_hit(src, path=HOT) == ["RL004"]

    def test_allows_none_branch_outside_hot_paths(self):
        src = """
            def push(record, tracer):
                if tracer is not None:
                    tracer.record("push", 0, 1)
        """
        assert rules_hit(src, path=COLD) == []

    def test_allows_coalescing_onto_null_object(self):
        src = """
            NULL_TRACER = object()

            def bind(tracer):
                return tracer if tracer is not None else NULL_TRACER
        """
        assert rules_hit(src, path=HOT) == []

    def test_flags_direct_span_construction(self):
        src = """
            from repro.telemetry import Span

            def trace(tracer):
                return Span(tracer, "manual", {}, False)
        """
        assert rules_hit(src, path=COLD) == ["RL004"]

    # -- profiler hot paths (PR 4) ------------------------------------

    def test_flags_profile_none_branch_in_hot_path(self):
        src = """
            def explore(self, view, update, profile):
                if profile is not None:
                    profile.attempt()
        """
        assert rules_hit(src, path=HOT) == ["RL004"]

    def test_flags_inverted_profile_none_branch(self):
        src = """
            def expand(self, profile):
                if None is profile:
                    return
                profile.expansion()
        """
        assert rules_hit(src, path=HOT) == ["RL004"]

    def test_allows_coalescing_profile_onto_null_object(self):
        src = """
            NULL_PROFILE = object()

            def bind(profile):
                return profile if profile is not None else NULL_PROFILE
        """
        assert rules_hit(src, path=HOT) == []

    def test_allows_branching_on_profile_enabled(self):
        # The sanctioned hot-path guard: one cached flag off ``.enabled``.
        src = """
            def evaluate(self, s):
                if self._profiling:
                    self.profile.filter_call(True)
                if self.profile.enabled:
                    self.profile.node(2)
        """
        assert rules_hit(src, path=HOT) == []

    def test_telemetry_profile_module_is_linted(self):
        # telemetry/profile.py is a hot-path accumulator, not part of the
        # RL004 exemption set: None branches inside it must flag.
        src = """
            def node(self, depth, profile):
                if profile is not None:
                    profile.node(depth)
        """
        assert rules_hit(src, path="src/repro/telemetry/profile.py") == ["RL004"]

    def test_telemetry_trace_module_stays_exempt(self):
        # trace.py defines the null objects themselves; its None checks are
        # the implementation of the contract.
        src = """
            def _resolve(tracer):
                if tracer is not None:
                    return tracer
                return None
        """
        assert rules_hit(src, path="src/repro/telemetry/trace.py") == []

    # -- server-span paths (PR 9: repro.net is a hot-path package) ----

    def test_flags_tracer_none_branch_in_net_server(self):
        src = """
            def dispatch(self, request, tracer):
                if tracer is not None:
                    with tracer.span("rpc.server"):
                        return self.handle(request)
                return self.handle(request)
        """
        assert rules_hit(src, path="src/repro/net/server.py") == ["RL004"]

    def test_flags_telemetry_none_branch_in_net_rpc(self):
        src = """
            def call(self, op, telemetry):
                if telemetry is None:
                    return self.attempt(op)
                with telemetry.tracer.span("rpc.call", op=op):
                    return self.attempt(op)
        """
        assert rules_hit(src, path="src/repro/net/rpc.py") == ["RL004"]

    def test_allows_enabled_gate_on_net_server_spans(self):
        # the disabled-tracing hot path branches on .enabled (a constant
        # attribute load), never on identity-vs-None
        src = """
            def dispatch(self, request, tracer):
                trace = None
                if tracer.enabled:
                    trace = decode(request.get("trace"))
                with tracer.span("rpc.server", trace=trace):
                    return self.handle(request)
        """
        assert rules_hit(src, path="src/repro/net/server.py") == []

    def test_allows_coalescing_in_net_client(self):
        src = """
            NULL_TELEMETRY = object()

            def bind(telemetry):
                return telemetry if telemetry is not None else NULL_TELEMETRY
        """
        assert rules_hit(src, path="src/repro/net/client.py") == []

    # -- pipelined channel paths (PR 10) ------------------------------

    def test_flags_tracer_none_branch_in_pipelined_read_loop(self):
        # every pipelined reply crosses the channel read loop, so it is
        # as hot as the dispatch path: null-object discipline applies
        src = """
            def read_loop(self, tracer):
                while True:
                    reply = self.recv()
                    if tracer is not None:
                        tracer.record("rpc.reply", 0, 1)
                    self.complete(reply)
        """
        assert rules_hit(src, path="src/repro/net/rpc.py") == ["RL004"]

    def test_allows_enabled_gate_in_pipelined_read_loop(self):
        src = """
            def read_loop(self, tracer):
                while True:
                    reply = self.recv()
                    if tracer.enabled:
                        tracer.record("rpc.reply", 0, 1)
                    self.complete(reply)
        """
        assert rules_hit(src, path="src/repro/net/rpc.py") == []


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

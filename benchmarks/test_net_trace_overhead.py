"""Wire-tracing overhead guard: the RPC path with trace propagation on.

PR 9 put trace-context propagation on every RPC (``rpc.call`` spans on
the client, a context quintuple on the wire, ``rpc.server``/``store.*``
spans on the server).  This benchmark prices that machinery in the three
regimes that matter, against a **raw** reference client whose retry
loop and request loop are the shipped bodies with the tracer code taken
out — the same raw-vs-disabled-vs-enabled framing as
``test_telemetry_overhead.py``:

* ``disabled_*_overhead`` — the shipped call path with the null tracer
  vs the raw body: the cost of the ``tracer.enabled`` branches tracing
  added to every call.  Target ≈ 0%.
* ``enabled_fetch_overhead`` — both ends traced, on the **fetch-ahead
  path** (``prefetch`` → one ``multi_get`` per frontier): the way mining
  actually reads records over the wire, and the workload the ≤5% guard
  is asserted on.
* ``enabled_ping_overhead`` / ``enabled_singles_overhead`` — the same
  price against µs-scale loopback round trips.  Recording three spans
  and shipping a context costs ~10–20 µs per RPC end to end
  (``enabled_ping_added_us`` records the absolute figure); against a
  ~50 µs loopback ping that is tens of percent *by construction*, so
  these are recorded with loose regression caps rather than gated at 5%
  — any real network round trip, and any batched fetch, amortizes the
  same microseconds to noise.

All variants are exercised in interleaved rounds (each round runs every
variant once) so machine-load drift lands on all of them equally;
best-of-N then discards scheduler noise.  Results land in the current
PR's repo-root bench file (see ``_harness.BENCH_PATH``).
"""

import time
from collections import deque

from _harness import lj_bench, print_table, record_bench

from repro.net import NetStoreClient
from repro.net.errors import (
    DeadlineExceeded,
    RetriesExhausted,
    TransportError,
)
from repro.net.frames import MessageType, encode_frame
from repro.net.rpc import FETCH_AHEAD, RpcClient
from repro.net.wire import decode_message, encode_message
from repro.telemetry import Telemetry

ROUNDS = 11

#: pings per round (the per-call round-trip probe)
PINGS = 200

#: frontier size fetched per round (every vertex cold)
FRONTIER = 250


class RawRpcClient(RpcClient):
    """The pre-tracing retry loop and request loop: retry discipline and
    fetch-ahead, zero tracer code.

    This is the untouched reference the disabled-path guard compares
    against (the ``_process_update`` analogue of the RPC layer): if the
    shipped ``call`` or ``call_window`` with a null tracer measures above
    this by more than noise, the tracing branches regressed the disabled
    path.
    """

    def _call(self, op, args, session, seq, fault=None):
        attempts = max(1, self.retry.max_attempts)
        last = fault
        for attempt in range(0 if fault is None else 1, attempts):
            if attempt:
                self.log.retries += 1
                self._sleep(self.retry.backoff(attempt - 1, self._rng))
            try:
                (result,) = self._exchange(op, deque([args]), session, seq)
                return result
            except DeadlineExceeded as exc:
                self.log.deadline_hits += 1
                last = exc
            except TransportError as exc:
                last = exc
        assert last is not None
        raise RetriesExhausted(attempts, last)

    def _exchange(self, op, pending, session=None, seq=None, trace=None):
        if not pending:
            return
        log = self.log
        conn = self._checkout()
        sent = deque()  # (id, start)
        landed = {}
        keep = True
        try:
            while pending:
                while len(sent) < min(FETCH_AHEAD, len(pending)):
                    self._next_id += 1
                    req_id = self._next_id
                    message = {"id": req_id, "op": op, "args": pending[len(sent)] or {}}
                    if seq is not None:
                        message["session"] = session
                        message["seq"] = seq
                    payload, flags = encode_message(message)
                    frame = encode_frame(MessageType.REQUEST, payload, flags=flags)
                    sent.append((req_id, self._clock()))
                    keep = False
                    log.rpcs += 1
                    log.per_op[op] = log.per_op.get(op, 0) + 1
                    conn.send(frame)
                    log.bytes_sent += len(frame)
                req_id, start = sent[0]
                while req_id not in landed:
                    remaining = start + self.deadline - self._clock()
                    if remaining <= 0:
                        raise DeadlineExceeded(f"{op}: deadline expired")
                    msg_type, flags, payload = conn.recv_frame(remaining)
                    log.bytes_received += len(payload)
                    reply = decode_message(payload, flags)
                    if any(reply.get("id") == other for other, _ in sent):
                        landed[reply["id"]] = (msg_type, reply)
                sent.popleft()
                pending.popleft()
                msg_type, reply = landed.pop(req_id)
                keep = not sent and msg_type is not MessageType.REQUEST
                result = self._result(msg_type, reply)
                log.observe_latency(self._clock() - start)
                yield result
        finally:
            if keep and self._idle is None and not self._closed:
                self._idle = conn
            else:
                conn.close()


def _variant(telemetry=None, raw=False):
    """A fresh embedded-server client over the identical lj-bench store."""
    graph = lj_bench()
    client = NetStoreClient(graph=graph, telemetry=telemetry)
    if raw:
        shipped = client._rpc
        client._rpc = RawRpcClient(
            shipped.host,
            shipped.port,
            deadline=shipped.deadline,
            retry=shipped.retry,
        )
    vertices = sorted(graph.vertices())[:FRONTIER]
    return client, vertices


def test_net_trace_overhead(benchmark):
    variants = {
        "raw": _variant(raw=True),
        "disabled": _variant(),  # telemetry=None → shipped null path
        "enabled": _variant(telemetry=Telemetry(node="client")),
    }

    def ping_pass(client):
        rpc = client._rpc
        for _ in range(PINGS):
            rpc.call("ping", {})

    def singles_pass(client, vertices):
        client.drop_cache()
        for v in vertices:
            client.get_record(v)

    def fetch_pass(client, vertices):
        client.drop_cache()
        client.prefetch(vertices)

    # all three variants must materialize the identical record set
    reference = None
    for client, vertices in variants.values():
        client.drop_cache()
        client.prefetch(vertices)
        edges = {v: sorted(client._cache[v].edges.keys()) for v in vertices}
        assert reference is None or edges == reference
        reference = edges

    def measure():
        best = {}
        for _ in range(ROUNDS):
            # interleaved: every round touches every variant, so machine
            # drift cannot masquerade as a variant difference
            for name, (client, vertices) in variants.items():
                t0 = time.perf_counter()
                ping_pass(client)
                t1 = time.perf_counter()
                singles_pass(client, vertices)
                t2 = time.perf_counter()
                fetch_pass(client, vertices)
                t3 = time.perf_counter()
                for key, val in (
                    (f"{name}_ping_s", t1 - t0),
                    (f"{name}_singles_s", t2 - t1),
                    (f"{name}_fetch_s", t3 - t2),
                ):
                    best[key] = min(best.get(key, float("inf")), val)
        return best

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    def overhead(mode, workload):
        return results[f"{mode}_{workload}_s"] / results[f"raw_{workload}_s"] - 1.0

    disabled_ping = overhead("disabled", "ping")
    disabled_fetch = overhead("disabled", "fetch")
    enabled_ping = overhead("enabled", "ping")
    enabled_singles = overhead("enabled", "singles")
    enabled_fetch = overhead("enabled", "fetch")
    added_us = (results["enabled_ping_s"] - results["raw_ping_s"]) / PINGS * 1e6

    print_table(
        "Wire tracing overhead (lj-bench, best of %d interleaved)" % ROUNDS,
        ["Workload", "Raw", "Disabled", "Enabled"],
        [
            (
                "ping (per RPC)",
                f"{results['raw_ping_s'] / PINGS * 1e6:.1f}us",
                f"{disabled_ping:+.1%}",
                f"{enabled_ping:+.1%} ({added_us:+.1f}us)",
            ),
            (
                "get_record singles",
                f"{results['raw_singles_s'] / FRONTIER * 1e6:.1f}us",
                f"{overhead('disabled', 'singles'):+.1%}",
                f"{enabled_singles:+.1%}",
            ),
            (
                "frontier fetch (batched)",
                f"{results['raw_fetch_s'] * 1e3:.2f}ms",
                f"{disabled_fetch:+.1%}",
                f"{enabled_fetch:+.1%}",
            ),
        ],
    )
    record_bench(
        "net_trace_overhead",
        {
            "workload": f"lj-bench, {PINGS} pings + {FRONTIER}-vertex frontier",
            "raw_ping_s": results["raw_ping_s"],
            "disabled_ping_s": results["disabled_ping_s"],
            "enabled_ping_s": results["enabled_ping_s"],
            "raw_singles_s": results["raw_singles_s"],
            "disabled_singles_s": results["disabled_singles_s"],
            "enabled_singles_s": results["enabled_singles_s"],
            "raw_fetch_s": results["raw_fetch_s"],
            "disabled_fetch_s": results["disabled_fetch_s"],
            "enabled_fetch_s": results["enabled_fetch_s"],
            "disabled_ping_overhead": disabled_ping,
            "disabled_fetch_overhead": disabled_fetch,
            "enabled_ping_overhead": enabled_ping,
            "enabled_singles_overhead": enabled_singles,
            "enabled_fetch_overhead": enabled_fetch,
            "enabled_ping_added_us": added_us,
            "target_disabled_overhead": 0.0,
            "target_enabled_overhead": 0.05,
        },
    )

    # Disabled path: a tracer attribute load plus `enabled` branches per
    # call — ≈0% by design, 10% hard cap absorbs machine noise.
    assert disabled_ping < 0.10, disabled_ping
    assert disabled_fetch < 0.10, disabled_fetch
    # The PR guard: tracing both ends of the mining read path (batched
    # fetch-ahead) costs ≤5%.  True cost is microseconds per RPC; the
    # windowed binary fetch brought the workload to ~4ms, so the 5%
    # bound is a ~200µs noise allowance — comfortable under best-of-N
    # on an idle machine, though a fully loaded box can exceed it.
    assert enabled_fetch < 0.05, enabled_fetch
    # Per-RPC regression canaries: ~15µs of spans on a ~50µs loopback
    # ping is expected; a blowout past these caps means the manual span
    # recording path (Tracer.record_completed) regressed.
    assert enabled_ping < 0.60, enabled_ping
    assert enabled_singles < 0.40, enabled_singles

    for client, _vertices in variants.values():
        client.close()

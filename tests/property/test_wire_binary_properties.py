"""Property tests for the payload codec's binary blobs (FLAG_BINARY).

Records and edge updates only ever travel as blobs, so the blob codec
must be lossless over the whole ``GraphStore`` contract: any record map
or update list decodes back bit-identically, corrupt payloads
(truncated, padded, mangled markers) raise :class:`ProtocolError` rather
than returning wrong data, and a value outside the contract raises
``ValueError`` in the writer — through ``--store net`` before any frame
is sent, leaving the served store untouched.
"""

import copy

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.net.errors import ApplicationError, ProtocolError
from repro.net.wire import (
    RecordsPayload,
    decode_binary_payload,
    encode_binary_payload,
)
from repro.store.api import make_store
from repro.store.mvstore import EdgeInterval, VertexRecord
from repro.types import EdgeUpdate

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

vertex_ids = st.integers(min_value=-(2**40), max_value=2**40)
timestamps = st.integers(min_value=0, max_value=2**40)
labels = st.none() | st.text(max_size=6)
directions = st.sampled_from([None, "fwd", "rev", "both"])

intervals = st.builds(
    EdgeInterval,
    added_ts=timestamps,
    deleted_ts=st.none() | timestamps,
    label=labels,
    direction=directions,
)

records = st.builds(
    VertexRecord,
    label_history=st.lists(st.tuples(timestamps, labels), max_size=4),
    edges=st.dictionaries(
        vertex_ids, st.lists(intervals, min_size=1, max_size=3), max_size=4
    ),
)

record_maps = st.dictionaries(vertex_ids, st.none() | records, max_size=5)

def _make_update(endpoints, added, label, direction):
    u, v = sorted(endpoints)
    return EdgeUpdate(u, v, added=added, label=label, direction=direction)


updates = st.lists(
    st.builds(
        _make_update,
        endpoints=st.tuples(vertex_ids, vertex_ids).filter(lambda t: t[0] != t[1]),
        added=st.booleans(),
        label=labels,
        direction=directions,
    ),
    max_size=8,
)


def records_equal(a, b):
    if (a is None) != (b is None):
        return False
    if a is None:
        return True
    if a.label_history != b.label_history:
        return False
    if set(a.edges) != set(b.edges):
        return False
    for dst, versions in a.edges.items():
        got = b.edges[dst]
        if len(got) != len(versions):
            return False
        for x, y in zip(versions, got):
            if (x.added_ts, x.deleted_ts, x.label, x.direction) != (
                y.added_ts,
                y.deleted_ts,
                y.label,
                y.direction,
            ):
                return False
    return True


class TestRoundTrip:
    @SETTINGS
    @given(record_maps)
    def test_record_map_round_trips(self, recs):
        message = {"id": 7, "result": RecordsPayload(recs)}
        payload = encode_binary_payload(message, kind="recs", path=("result",))
        decoded = decode_binary_payload(payload)
        assert decoded["id"] == 7
        reply = decoded["result"]
        assert isinstance(reply, RecordsPayload)
        assert set(reply.records) == set(recs)
        for v, rec in recs.items():
            assert records_equal(reply.records[v], rec)

    @SETTINGS
    @given(updates)
    def test_update_list_round_trips(self, upds):
        message = {"id": 3, "op": "put_edges", "args": {"ts": 4, "updates": upds}}
        payload = encode_binary_payload(
            message, kind="upds", path=("args", "updates")
        )
        decoded = decode_binary_payload(payload)
        assert decoded["op"] == "put_edges"
        assert decoded["args"]["ts"] == 4
        assert decoded["args"]["updates"] == upds


class TestCorruptPayloads:
    @SETTINGS
    @given(record_maps, st.data())
    def test_any_truncation_raises(self, recs, data):
        payload = encode_binary_payload(
            {"id": 1, "result": RecordsPayload(recs)}, kind="recs", path=("result",)
        )
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        with pytest.raises(ProtocolError):
            decode_binary_payload(payload[:cut])

    @SETTINGS
    @given(record_maps, st.binary(min_size=1, max_size=8))
    def test_trailing_bytes_raise(self, recs, extra):
        payload = encode_binary_payload(
            {"id": 1, "result": RecordsPayload(recs)}, kind="recs", path=("result",)
        )
        with pytest.raises(ProtocolError):
            decode_binary_payload(payload + extra)

    def test_oversized_envelope_length_raises(self):
        payload = encode_binary_payload(
            {"id": 1, "result": RecordsPayload({})}, kind="recs", path=("result",)
        )
        mangled = b"\xff\xff\xff\xff" + payload[4:]
        with pytest.raises(ProtocolError, match="overruns"):
            decode_binary_payload(mangled)

    def test_bad_marker_shapes_raise(self):
        from repro.net.wire import _U32, encode_payload

        for envelope in (
            {"id": 1},  # no marker at all
            {"id": 1, "_b": "recs"},  # not a list
            {"id": 1, "_b": ["nope", "result"]},  # unknown kind
            {"id": 1, "_b": ["recs"]},  # no path
            {"id": 1, "_b": ["upds", "args", "updates"]},  # parent dict absent
        ):
            env = encode_payload(envelope)
            with pytest.raises(ProtocolError):
                decode_binary_payload(_U32.pack(len(env)) + env)


class TestOutOfContractRaises:
    def test_out_of_range_vertex_id_raises_value_error(self):
        recs = {2**70: None}
        with pytest.raises(ValueError):
            encode_binary_payload(
                {"id": 1, "result": RecordsPayload(recs)},
                kind="recs",
                path=("result",),
            )

    def test_non_string_label_raises_value_error(self):
        upds = [EdgeUpdate(1, 2, added=True, label=7)]
        with pytest.raises(ValueError):
            encode_binary_payload(
                {"id": 1, "args": {"updates": upds}},
                kind="upds",
                path=("args", "updates"),
            )

    @pytest.mark.parametrize(
        "write",
        [
            lambda net: net.apply_edge_updates(
                2, [EdgeUpdate(5, 6, added=True), EdgeUpdate(6, 7, added=True, label=7)]
            ),
            lambda net: net.apply_edge_updates(2, [EdgeUpdate(5, 2**70, added=True)]),
            lambda net: net.put_record(
                5, VertexRecord(label_history=[(2, 7)], edges={})
            ),
            lambda net: net.put_record(
                5, VertexRecord(edges={2**63: [EdgeInterval(2, None)]})
            ),
        ],
        ids=["put_edges-label", "put_edges-id", "put_record-label", "put_record-id"],
    )
    def test_net_writer_raises_before_sending(self, write):
        net = make_store("net")
        try:
            net.add_edge(1, 2, 1, label="a")
            served = net._server.store
            before = {v: copy.deepcopy(served.get_record(v)) for v in served.vertices()}
            rpcs = net.net_log.rpcs
            with pytest.raises(ValueError):
                write(net)
            assert net.net_log.rpcs == rpcs  # no frame left the client
            assert {v: served.get_record(v) for v in served.vertices()} == before
            assert net.neighbors_at(1, 1) == [2]
        finally:
            net.close()

    def test_an_unencodable_served_record_answers_an_error(self):
        """A record put into the served store in-process, with a label the
        blob cannot carry: the read fails with an error reply, and the
        connection keeps serving."""
        net = make_store("net")
        try:
            net._server.store.add_edge(1, 2, 1, label=7)
            with pytest.raises(ApplicationError, match="ValueError"):
                net.get_record(1)
            assert net.get_record(3) is None
            assert net.net_log.retries == 0
        finally:
            net.close()


@pytest.fixture(scope="module")
def net_store():
    net = make_store("net")
    yield net
    net.close()


class TestPutRecordRoundTrip:
    @SETTINGS
    @given(vertex_ids, records)
    def test_put_record_round_trips_through_the_blob(self, net_store, v, record):
        net_store.put_record(v, record)
        assert records_equal(net_store._server.store.get_record(v), record)
        assert records_equal(net_store.get_record(v), record)

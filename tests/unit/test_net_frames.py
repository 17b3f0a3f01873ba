"""Frame codec edge cases: the wire protocol's contract at the byte level.

Covers the satellite checklist explicitly: zero-length payloads, max-size
frames, truncated reads mid-header and mid-payload, unknown message
types, and protocol-version mismatches — plus the payload codec the
frames carry.
"""

import struct

import pytest

from repro.net.errors import (
    BadMagicError,
    FrameTooLargeError,
    ProtocolError,
    TruncatedFrameError,
    UnknownMessageTypeError,
    VersionMismatchError,
)
from repro.net.frames import (
    FLAG_BINARY,
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    MessageType,
    decode_header,
    encode_frame,
    read_frame,
)
from repro.net.wire import (
    RecordsPayload,
    decode_message,
    decode_payload,
    decode_updated_keys,
    encode_message,
    encode_payload,
    encode_updated_keys,
    split_address,
)
from repro.store.mvstore import MultiVersionStore
from repro.types import EdgeUpdate


def reader(data, chunk=None):
    """A recv-like callable over a byte string, optionally dribbling."""
    view = memoryview(bytes(data))
    state = {"pos": 0}

    def read(n):
        if chunk is not None:
            n = min(n, chunk)
        pos = state["pos"]
        out = view[pos : pos + n].tobytes()
        state["pos"] = pos + len(out)
        return out

    return read


class TestFrameRoundTrip:
    def test_round_trip(self):
        frame = encode_frame(MessageType.REQUEST, b'{"id":1}')
        msg_type, flags, payload = read_frame(reader(frame))
        assert msg_type is MessageType.REQUEST
        assert flags == 0
        assert payload == b'{"id":1}'

    def test_flag_bits_round_trip(self):
        for bits in (0, FLAG_BINARY):
            frame = encode_frame(MessageType.RESPONSE, b"x", flags=bits)
            msg_type, flags, payload = read_frame(reader(frame))
            assert msg_type is MessageType.RESPONSE
            assert flags == bits
            assert payload == b"x"

    def test_unknown_flag_bits_rejected(self):
        # only FLAG_BINARY is assigned (0x40 was v1's pipeline bit): the
        # type byte decodes to an unknown message type, not a
        # silently-ignored extension
        for bit in (0x20, 0x40):
            header = struct.pack(
                ">2sBBI", MAGIC, PROTOCOL_VERSION, int(MessageType.REQUEST) | bit, 0
            )
            with pytest.raises(UnknownMessageTypeError):
                decode_header(header)

    def test_zero_length_payload(self):
        frame = encode_frame(MessageType.RESPONSE, b"")
        assert len(frame) == HEADER_SIZE
        msg_type, flags, payload = read_frame(reader(frame))
        assert msg_type is MessageType.RESPONSE
        assert payload == b""

    def test_max_size_frame(self):
        limit = 1 << 16
        payload = b"x" * limit
        frame = encode_frame(MessageType.REQUEST, payload, max_payload=limit)
        got_type, got_flags, got = read_frame(
            reader(frame, chunk=8192), max_payload=limit
        )
        assert got == payload

    def test_oversized_payload_rejected_on_encode(self):
        with pytest.raises(FrameTooLargeError) as err:
            encode_frame(MessageType.REQUEST, b"x" * 17, max_payload=16)
        assert err.value.size == 17
        assert err.value.limit == 16

    def test_oversized_length_rejected_on_decode(self):
        frame = encode_frame(MessageType.REQUEST, b"x" * 64)
        with pytest.raises(FrameTooLargeError):
            read_frame(reader(frame), max_payload=32)

    def test_dribbling_reader_reassembles(self):
        frame = encode_frame(MessageType.ERROR, b"0123456789" * 5)
        msg_type, flags, payload = read_frame(reader(frame, chunk=3))
        assert msg_type is MessageType.ERROR
        assert payload == b"0123456789" * 5


class TestFrameFaults:
    def test_truncated_mid_header(self):
        frame = encode_frame(MessageType.REQUEST, b"abc")
        with pytest.raises(TruncatedFrameError) as err:
            read_frame(reader(frame[: HEADER_SIZE - 2]))
        assert not err.value.clean_eof

    def test_truncated_mid_payload(self):
        frame = encode_frame(MessageType.REQUEST, b"abcdef")
        with pytest.raises(TruncatedFrameError) as err:
            read_frame(reader(frame[:-3]))
        assert not err.value.clean_eof

    def test_eof_before_any_bytes_is_clean(self):
        with pytest.raises(TruncatedFrameError) as err:
            read_frame(reader(b""))
        assert err.value.clean_eof

    def test_bad_magic(self):
        frame = bytearray(encode_frame(MessageType.REQUEST, b""))
        frame[0:2] = b"XX"
        with pytest.raises(BadMagicError):
            read_frame(reader(frame))

    def test_version_mismatch(self):
        frame = encode_frame(MessageType.REQUEST, b"", version=PROTOCOL_VERSION + 1)
        with pytest.raises(VersionMismatchError) as err:
            read_frame(reader(frame))
        assert err.value.got == PROTOCOL_VERSION + 1
        assert err.value.expected == PROTOCOL_VERSION

    def test_unknown_message_type(self):
        header = struct.pack(">2sBBI", MAGIC, PROTOCOL_VERSION, 99, 0)
        with pytest.raises(UnknownMessageTypeError) as err:
            decode_header(header)
        assert err.value.msg_type == 99

    def test_header_size_is_stable(self):
        # the wire format is versioned: changing the header layout must
        # bump PROTOCOL_VERSION, and this pin makes that loud
        assert HEADER_SIZE == 8
        assert PROTOCOL_VERSION == 3

    def test_a_v1_peer_fails_loudly(self):
        frame = encode_frame(MessageType.REQUEST, b"{}", version=1)
        with pytest.raises(VersionMismatchError):
            read_frame(reader(frame))


class TestPayloadCodec:
    def test_canonical_json_is_deterministic(self):
        a = encode_payload({"b": 1, "a": {"z": None, "y": [1, 2]}})
        b = encode_payload({"a": {"y": [1, 2], "z": None}, "b": 1})
        assert a == b

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_payload(b"\xff\xfe not json")
        with pytest.raises(ProtocolError):
            decode_payload(b"[1, 2, 3]")  # not an object

    def test_records_and_updates_always_travel_as_blobs(self):
        store = MultiVersionStore()
        store.add_edge(1, 2, 1, label="knows", direction="fwd")
        reply = {"id": 1, "result": RecordsPayload({1: store.get_record(1)})}
        put_edges = {
            "id": 2,
            "op": "put_edges",
            "args": {"ts": 1, "updates": [EdgeUpdate(1, 2, added=True)]},
        }
        put_record = {
            "id": 3,
            "op": "put_record",
            "args": {"v": 1, "record": RecordsPayload({1: store.get_record(1)})},
        }
        for message in (reply, put_edges, put_record):
            payload, flags = encode_message(message)
            assert flags == FLAG_BINARY
            assert decode_message(payload, flags).keys() == message.keys()
        assert decode_message(*encode_message(put_edges))["args"] == put_edges["args"]

    def test_other_messages_are_canonical_json(self):
        message = {"id": 4, "op": "get_record", "args": {"v": 1}}
        payload, flags = encode_message(message)
        assert flags == 0 and payload == encode_payload(message)
        assert decode_message(payload, flags) == message

    def test_updated_keys_round_trip(self):
        keys = {(3, 7): True, (1, 2): False}
        assert decode_updated_keys(encode_updated_keys(keys)) == keys

    def test_split_address(self):
        assert split_address("127.0.0.1:7411") == ("127.0.0.1", 7411)
        with pytest.raises(ValueError):
            split_address("no-port")

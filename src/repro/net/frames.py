"""Length-prefixed frames: the lowest layer of the wire protocol.

Everything the client and server exchange is a **frame**::

    offset  size  field
    0       2     magic  b"TS"  (Tesseract Store)
    2       1     protocol version (PROTOCOL_VERSION)
    3       1     flags (high bits) | message type (low bits)
    4       4     payload length, unsigned big-endian
    8       n     payload bytes

The type byte's high bit is :data:`FLAG_BINARY`: the payload carries a
binary blob (see :mod:`repro.net.wire`, which alone decides when).
Unknown flag bits make the type byte decode to an unknown message type,
which is rejected the same way an unknown type is.

The header is fixed-size and self-describing, so a reader can always
decide — before touching the payload — whether it speaks this frame:
wrong magic, unknown version, unknown type, and oversized payloads each
raise their own :mod:`repro.net.errors` subtype.  Payload length may be
zero (e.g. an empty-body response); the hard ceiling
:data:`MAX_PAYLOAD` bounds what a malicious or confused peer can make us
buffer.

Framing is deliberately dumb: it neither inspects nor transforms payload
bytes.  Message *content* encoding lives one layer up in
:mod:`repro.net.wire`.
"""

from __future__ import annotations

import enum
import struct
from typing import Callable, Tuple

from repro.net.errors import (
    BadMagicError,
    FrameTooLargeError,
    TruncatedFrameError,
    UnknownMessageTypeError,
    VersionMismatchError,
)

MAGIC = b"TS"

#: bump on any incompatible change to framing or payload encoding
PROTOCOL_VERSION = 2

#: hard ceiling on a single frame's payload (bytes)
MAX_PAYLOAD = 8 * 1024 * 1024

_HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = _HEADER.size


class MessageType(enum.IntEnum):
    """What a frame's payload means."""

    REQUEST = 1
    RESPONSE = 2
    ERROR = 3


_KNOWN_TYPES = {int(t) for t in MessageType}

#: the frame payload carries a binary blob (see repro.net.wire)
FLAG_BINARY = 0x80

FLAG_MASK = FLAG_BINARY


def encode_frame(
    msg_type: MessageType,
    payload: bytes,
    *,
    flags: int = 0,
    version: int = PROTOCOL_VERSION,
    max_payload: int = MAX_PAYLOAD,
) -> bytes:
    """Serialize one frame; raises :class:`FrameTooLargeError` when over."""
    if len(payload) > max_payload:
        raise FrameTooLargeError(len(payload), max_payload)
    return _HEADER.pack(
        MAGIC, version, int(msg_type) | (flags & FLAG_MASK), len(payload)
    ) + payload


def decode_header(
    header: bytes, *, max_payload: int = MAX_PAYLOAD
) -> Tuple[MessageType, int, int]:
    """Validate a raw header; returns ``(msg_type, flags, payload_length)``."""
    if len(header) != HEADER_SIZE:
        raise TruncatedFrameError(
            f"frame header truncated at {len(header)}/{HEADER_SIZE} bytes"
        )
    magic, version, type_byte, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise BadMagicError(f"bad frame magic {magic!r}")
    if version != PROTOCOL_VERSION:
        raise VersionMismatchError(version, PROTOCOL_VERSION)
    flags = type_byte & FLAG_MASK
    msg_type = type_byte & ~FLAG_MASK
    if msg_type not in _KNOWN_TYPES:
        raise UnknownMessageTypeError(type_byte)
    if length > max_payload:
        raise FrameTooLargeError(length, max_payload)
    return MessageType(msg_type), flags, length


def read_frame(
    read: Callable[[int], bytes], *, max_payload: int = MAX_PAYLOAD
) -> Tuple[MessageType, int, bytes]:
    """Read one complete frame via ``read(n)`` (a ``recv``-like callable).

    Returns ``(msg_type, flags, payload)``.  ``read`` may return fewer
    bytes than requested (socket semantics) and must return ``b""`` at
    EOF.  EOF on the very first byte raises :class:`TruncatedFrameError`
    with ``clean_eof=True`` set on the exception, so callers can tell an
    orderly peer close from a frame cut off mid-flight.
    """
    header = _read_exact(read, HEADER_SIZE, what="frame header")
    msg_type, flags, length = decode_header(header, max_payload=max_payload)
    payload = _read_exact(read, length, what="frame payload") if length else b""
    return msg_type, flags, payload


def _read_exact(read: Callable[[int], bytes], n: int, *, what: str) -> bytes:
    chunks = []
    got = 0
    while got < n:
        chunk = read(n - got)
        if not chunk:
            exc = TruncatedFrameError(
                f"connection closed mid-{what} at {got}/{n} bytes"
            )
            exc.clean_eof = got == 0 and what == "frame header"
            raise exc
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)

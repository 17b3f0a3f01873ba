"""Message payload encoding: canonical JSON plus record-type codecs.

Frame payloads are UTF-8 **canonical JSON** — keys sorted, separators
compact — so encoding is deterministic: the same logical message is the
same bytes on every run, interpreter, and platform (the repo-wide
byte-identical-output contract extends down to the wire).  JSON keeps the
payload self-describing and debuggable with nothing but ``tcpdump``; the
frame header (:mod:`repro.net.frames`) carries the protocol version, so
payload shape changes bump :data:`~repro.net.frames.PROTOCOL_VERSION`.

Three message shapes travel in frames:

* ``REQUEST``  — ``{"id": n, "op": str, "args": {...}}`` plus optional
  ``"session"``/``"seq"`` for exactly-once writes and optional
  ``"trace"`` carrying the caller's trace context (see
  :func:`encode_trace_context`);
* ``RESPONSE`` — ``{"id": n, "result": ...}``;
* ``ERROR``    — ``{"id": n, "error": {"type": str, "message": str}}``.

The ``"trace"`` key is optional: servers read request fields with
``.get``, and a missing or malformed context leaves the RPC untraced
(see :func:`decode_trace_context`).

The codecs below translate the store's small value types to and from
JSON-safe structures.

Payload codec
    Records and edge updates never travel as JSON.  A message that
    carries them — a ``multi_get``/``get_record`` reply (a
    :class:`RecordsPayload`), a ``put_edges`` request (``updates``) or a
    ``put_record`` request (``record``, a one-record
    :class:`RecordsPayload`) — is framed with
    :data:`~repro.net.frames.FLAG_BINARY` and its payload is a ``u32``
    length-prefixed canonical-JSON **envelope** (the message minus that
    field, plus a ``_b`` marker naming the blob kind and where the decoded
    value belongs) followed by a struct-packed **blob** of edge-version
    quads with a shared label string table.  Every other message is plain
    canonical JSON.  :func:`encode_message` / :func:`decode_message` pick
    the form; there is no fallback.  The blob covers the whole
    :class:`~repro.store.api.GraphStore` contract (``int`` ids and
    timestamps, ``str``-or-``None`` labels, the four directions): a value
    outside it (a non-``str`` label, an id outside int64, > 65534 distinct
    labels) raises ``ValueError`` at encode time, before any frame is
    sent, and any truncated or oversized blob raises
    :class:`~repro.net.errors.ProtocolError` at decode time.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.net.errors import ProtocolError
from repro.net.frames import FLAG_BINARY
from repro.store.api import ReclaimStats
from repro.store.mvstore import EdgeInterval, VertexRecord
from repro.types import EdgeKey, EdgeUpdate, Timestamp


def encode_payload(message: Dict[str, Any]) -> bytes:
    """Canonical JSON bytes for one message (deterministic)."""
    return json.dumps(
        message, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Parse a message payload; malformed bytes are a protocol fault."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return message


# -- trace context -----------------------------------------------------------


def encode_trace_context(
    trace_id: str, span_id: int, node: str, flags: int = 1, attempt: int = 0
) -> List[Any]:
    """The wire form of a trace context (the optional ``"trace"`` key).

    A fixed ``[trace_id, span_id, node, flags, attempt]`` quintuple — the
    same positional-list convention the edge-version quads use, and a
    fraction of the bytes (and of the ``json`` encode/decode time) a keyed
    object would cost on a field that rides **every** request.  ``attempt``
    is the zero-based retry attempt number of the request carrying this
    context; the server records it on its span so retried RPCs are
    attributable per attempt in a merged trace.
    """
    return [trace_id, span_id, node, flags, attempt]


def decode_trace_context(value: Any) -> Optional[Tuple[str, int, str, int, int]]:
    """Validate a request's ``"trace"`` field; tolerant of absence.

    Returns the ``(trace_id, span_id, node, flags, attempt)`` quintuple,
    or ``None`` when the field is absent or malformed — a bad trace
    context must never fail the RPC it rides on (tracing is best-effort
    observability, not part of the store contract).  The two trailing
    fields are optional on the wire and individually fall back to their
    defaults when malformed.
    """
    if type(value) is not list or not 3 <= len(value) <= 5:
        return None
    trace_id, span_id, node = value[0], value[1], value[2]
    if not isinstance(trace_id, str) or not trace_id:
        return None
    if not isinstance(span_id, int) or isinstance(span_id, bool):
        return None
    if not isinstance(node, str):
        return None
    flags = value[3] if len(value) > 3 else 1
    if not isinstance(flags, int) or isinstance(flags, bool):
        flags = 1
    attempt = value[4] if len(value) > 4 else 0
    if not isinstance(attempt, int) or isinstance(attempt, bool):
        attempt = 0
    return trace_id, span_id, node, flags, attempt


# -- small value types -------------------------------------------------------


def encode_updated_keys(keys: Dict[EdgeKey, bool]) -> List[list]:
    """Deterministically ordered ``updated_keys_in`` result."""
    return [[u, v, added] for (u, v), added in sorted(keys.items())]


def decode_updated_keys(data: List[list]) -> Dict[EdgeKey, bool]:
    return {(u, v): added for u, v, added in data}


def encode_reclaim_stats(stats: ReclaimStats) -> dict:
    return {
        "horizon": stats.horizon,
        "reclaimed": stats.reclaimed,
        "per_shard": {str(s): n for s, n in sorted(stats.per_shard.items())},
        "index_pruned": stats.index_pruned,
        "cache_invalidated": stats.cache_invalidated,
    }


def decode_reclaim_stats(data: dict) -> ReclaimStats:
    return ReclaimStats(
        horizon=data["horizon"],
        reclaimed=data["reclaimed"],
        per_shard={int(s): n for s, n in data["per_shard"].items()},
        index_pruned=data["index_pruned"],
        cache_invalidated=data["cache_invalidated"],
    )


def decode_timestamp(value: Any) -> Timestamp:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ProtocolError(f"timestamp field is not an integer: {value!r}")
    return value


# -- the binary blob codec --------------------------------------------------

_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")
_VERTEX_HEAD = struct.Struct(">qB")  # vertex id, presence byte
_LABEL_CHANGE = struct.Struct(">qH")  # ts, label index
_NEIGHBOR_HEAD = struct.Struct(">qI")  # neighbor id, version count
_EDGE_VERSION = struct.Struct(">qqHB")  # added, deleted (-1 = None), label, dir
_UPDATE = struct.Struct(">qqBHB")  # u, v, added, label, dir
#: a neighbor head immediately followed by its first edge version — the
#: overwhelmingly common single-version neighbor packs/unpacks in ONE
#: struct call instead of two (pure layout fusion, not a wire change)
_NEIGHBOR_ONE = struct.Struct(">qIqqHB")

#: string-table index meaning "label is None"
_NO_LABEL = 0xFFFF

#: direction codes are closed over the protocol's legal direction values
_DIRECTIONS: Tuple[Optional[str], ...] = (None, "fwd", "rev", "both")
_DIR_CODE = {d: i for i, d in enumerate(_DIRECTIONS)}

class RecordsPayload:
    """A vertex-id -> record map, the value a ``recs`` blob carries.

    ``multi_get`` and ``get_record`` return one (``get_record``'s holds
    one record); a ``put_record`` request carries one under ``record``.
    The type marks the field for :func:`encode_message` and is what
    :func:`decode_message` hands back.
    """

    __slots__ = ("records",)

    def __init__(self, records: Dict[int, Optional[VertexRecord]]) -> None:
        self.records = records


class _StringTable:
    """Intern labels into dense ``u16`` indices (encode side)."""

    __slots__ = ("_index", "entries")

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self.entries: List[str] = []

    def index_of(self, label: Optional[str]) -> int:
        if label is None:
            return _NO_LABEL
        if not isinstance(label, str):
            raise ValueError(f"binary codec requires str labels, not {label!r}")
        idx = self._index.get(label)
        if idx is None:
            idx = len(self.entries)
            if idx >= _NO_LABEL:
                raise ValueError("too many distinct labels for the binary codec")
            self._index[label] = idx
            self.entries.append(label)
        return idx

    def encode(self) -> bytes:
        out = bytearray(_U32.pack(len(self.entries)))
        for label in self.entries:
            raw = label.encode("utf-8")
            if len(raw) > 0xFFFE:
                raise ValueError("label too long for the binary codec")
            out += _U16.pack(len(raw))
            out += raw
        return bytes(out)


class _BlobReader:
    """Bounds-checked cursor over a binary blob (decode side)."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes, pos: int) -> None:
        self.data = data
        self.pos = pos

    def unpack(self, st: struct.Struct) -> tuple:
        end = self.pos + st.size
        if end > len(self.data):
            raise ProtocolError(
                f"binary payload truncated at byte {self.pos}"
            )
        values = st.unpack_from(self.data, self.pos)
        self.pos = end
        return values

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise ProtocolError(
                f"binary payload truncated at byte {self.pos}"
            )
        chunk = self.data[self.pos : end]
        self.pos = end
        return chunk

    def read_string_table(self) -> List[Optional[str]]:
        (count,) = self.unpack(_U32)
        table: List[Optional[str]] = []
        for _ in range(count):
            (length,) = self.unpack(_U16)
            try:
                table.append(self.take(length).decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"undecodable label in string table: {exc}") from None
        return table

    def label_at(self, idx: int, table: List[Optional[str]]) -> Optional[str]:
        if idx == _NO_LABEL:
            return None
        if idx >= len(table):
            raise ProtocolError(f"label index {idx} outside string table")
        return table[idx]


def _require_wire_int(value: Any, what: str) -> int:
    # bool is an int subclass but would change meaning across codecs
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"binary codec requires int {what}, not {value!r}")
    return value


def _dir_code(direction: Optional[str]) -> int:
    code = _DIR_CODE.get(direction)
    if code is None:
        raise ValueError(f"direction {direction!r} has no binary encoding")
    return code


def _pack_records(records: Dict[int, Optional[VertexRecord]]) -> bytes:
    # Hot loop: the server packs thousands of edge versions per multi_get
    # reply, so struct ``pack`` methods are bound into locals and the
    # int guards are inline ``type(x) is int`` checks (exact type: bool
    # is rejected too) with the slow ``_require_wire_int`` raising the
    # descriptive ValueError only for a value outside the contract.
    labels = _StringTable()
    label_index = labels.index_of
    pack_vertex = _VERTEX_HEAD.pack
    pack_label = _LABEL_CHANGE.pack
    pack_neighbor = _NEIGHBOR_HEAD.pack
    pack_neighbor_one = _NEIGHBOR_ONE.pack
    pack_edge = _EDGE_VERSION.pack
    pack_u32 = _U32.pack
    dir_codes = _DIR_CODE
    no_label = _NO_LABEL
    body = bytearray(pack_u32(len(records)))
    try:
        for v, record in records.items():
            if type(v) is not int:
                _require_wire_int(v, "vertex id")
            if record is None:
                body += pack_vertex(v, 0)
                continue
            body += pack_vertex(v, 1)
            history = record.label_history
            body += pack_u32(len(history))
            for ts, label in history:
                if type(ts) is not int:
                    _require_wire_int(ts, "timestamp")
                body += pack_label(
                    ts, no_label if label is None else label_index(label)
                )
            edges = record.edges
            body += pack_u32(len(edges))
            for dst, versions in edges.items():
                if type(dst) is not int:
                    _require_wire_int(dst, "vertex id")
                n_versions = len(versions)
                if n_versions == 1:
                    # fused pack: head + sole version in one struct call
                    iv = versions[0]
                    added = iv.added_ts
                    if type(added) is not int:
                        _require_wire_int(added, "timestamp")
                    deleted = iv.deleted_ts
                    if deleted is None:
                        deleted = -1
                    elif type(deleted) is not int:
                        _require_wire_int(deleted, "timestamp")
                    label = iv.label
                    code = dir_codes.get(iv.direction)
                    if code is None:
                        raise ValueError(
                            f"direction {iv.direction!r} has no binary encoding"
                        )
                    body += pack_neighbor_one(
                        dst,
                        1,
                        added,
                        deleted,
                        no_label if label is None else label_index(label),
                        code,
                    )
                    continue
                body += pack_neighbor(dst, n_versions)
                for iv in versions:
                    added = iv.added_ts
                    if type(added) is not int:
                        _require_wire_int(added, "timestamp")
                    deleted = iv.deleted_ts
                    if deleted is None:
                        deleted = -1
                    elif type(deleted) is not int:
                        _require_wire_int(deleted, "timestamp")
                    label = iv.label
                    code = dir_codes.get(iv.direction)
                    if code is None:
                        raise ValueError(
                            f"direction {iv.direction!r} has no binary encoding"
                        )
                    body += pack_edge(
                        added,
                        deleted,
                        no_label if label is None else label_index(label),
                        code,
                    )
    except struct.error as exc:  # an id or ts outside int64
        raise ValueError(f"value out of range for binary codec: {exc}") from None
    return labels.encode() + bytes(body)


def _unpack_records(reader: _BlobReader) -> Dict[int, Optional[VertexRecord]]:
    table = reader.read_string_table()
    # Hot loop: a prefetch decodes thousands of these structs per reply,
    # so the cursor is inlined into locals and bounds checking is left to
    # ``struct.unpack_from`` itself (struct.error == truncated payload)
    # instead of paying a _BlobReader method call per struct.
    data = reader.data
    pos = reader.pos
    end = len(data)
    vertex_head = _VERTEX_HEAD.unpack_from
    label_change = _LABEL_CHANGE.unpack_from
    neighbor_head = _NEIGHBOR_HEAD.unpack_from
    neighbor_one = _NEIGHBOR_ONE.unpack_from
    edge_version = _EDGE_VERSION.unpack_from
    u32 = _U32.unpack_from
    vertex_head_n = _VERTEX_HEAD.size
    label_change_n = _LABEL_CHANGE.size
    neighbor_head_n = _NEIGHBOR_HEAD.size
    neighbor_one_n = _NEIGHBOR_ONE.size
    edge_version_n = _EDGE_VERSION.size
    no_label = _NO_LABEL
    directions = _DIRECTIONS
    label_count = len(table)
    records: Dict[int, Optional[VertexRecord]] = {}
    try:
        (count,) = u32(data, pos)
        pos += 4
        for _ in range(count):
            v, present = vertex_head(data, pos)
            pos += vertex_head_n
            if present == 0:
                records[v] = None
                continue
            if present != 1:
                raise ProtocolError(f"bad record presence byte {present}")
            (n_labels,) = u32(data, pos)
            pos += 4
            history = []
            for _ in range(n_labels):
                ts, idx = label_change(data, pos)
                pos += label_change_n
                if idx == no_label:
                    history.append((ts, None))
                elif idx < label_count:
                    history.append((ts, table[idx]))
                else:
                    raise ProtocolError(f"label index {idx} outside string table")
            (n_neighbors,) = u32(data, pos)
            pos += 4
            edges: Dict[int, List[EdgeInterval]] = {}
            for _ in range(n_neighbors):
                # Speculative fused read: when enough bytes remain for a
                # head + one version, unpack both at once; if the version
                # count turns out not to be 1, only the head's bytes are
                # consumed and the per-version loop below takes over.
                if end - pos >= neighbor_one_n:
                    dst, n_versions, added, deleted, idx, dcode = neighbor_one(
                        data, pos
                    )
                    if n_versions == 1:
                        pos += neighbor_one_n
                        if idx == no_label:
                            label = None
                        elif idx < label_count:
                            label = table[idx]
                        else:
                            raise ProtocolError(
                                f"label index {idx} outside string table"
                            )
                        if dcode >= 4:
                            raise ProtocolError(f"bad direction code {dcode}")
                        edges[dst] = [
                            EdgeInterval(
                                added,
                                None if deleted == -1 else deleted,
                                label,
                                directions[dcode],
                            )
                        ]
                        continue
                    pos += neighbor_head_n
                else:
                    dst, n_versions = neighbor_head(data, pos)
                    pos += neighbor_head_n
                versions = []
                for _ in range(n_versions):
                    added, deleted, idx, dcode = edge_version(data, pos)
                    pos += edge_version_n
                    if idx == no_label:
                        label = None
                    elif idx < label_count:
                        label = table[idx]
                    else:
                        raise ProtocolError(
                            f"label index {idx} outside string table"
                        )
                    if dcode >= 4:
                        raise ProtocolError(f"bad direction code {dcode}")
                    versions.append(
                        EdgeInterval(
                            added,
                            None if deleted == -1 else deleted,
                            label,
                            directions[dcode],
                        )
                    )
                edges[dst] = versions
            records[v] = VertexRecord(history, edges)
    except struct.error:
        raise ProtocolError(f"binary payload truncated at byte {pos}") from None
    reader.pos = pos
    return records


def _pack_updates(updates: Iterable[EdgeUpdate]) -> bytes:
    labels = _StringTable()
    body = bytearray()
    count = 0
    try:
        for upd in updates:
            body += _UPDATE.pack(
                _require_wire_int(upd.u, "vertex id"),
                _require_wire_int(upd.v, "vertex id"),
                1 if upd.added else 0,
                labels.index_of(upd.label),
                _dir_code(upd.direction),
            )
            count += 1
    except struct.error as exc:
        raise ValueError(f"value out of range for binary codec: {exc}") from None
    return labels.encode() + _U32.pack(count) + bytes(body)


def _unpack_updates(reader: _BlobReader) -> List[EdgeUpdate]:
    table = reader.read_string_table()
    (count,) = reader.unpack(_U32)
    updates = []
    for _ in range(count):
        u, v, added, idx, dcode = reader.unpack(_UPDATE)
        if added not in (0, 1):
            raise ProtocolError(f"bad update added byte {added}")
        if dcode >= len(_DIRECTIONS):
            raise ProtocolError(f"bad direction code {dcode}")
        updates.append(
            EdgeUpdate(
                u,
                v,
                added=bool(added),
                label=reader.label_at(idx, table),
                direction=_DIRECTIONS[dcode],
            )
        )
    return updates


_BLOB_CODECS = {
    "recs": (_pack_records, _unpack_records),
    "upds": (_pack_updates, _unpack_updates),
}


def encode_binary_payload(
    message: Dict[str, Any], *, kind: str, path: Tuple[str, ...]
) -> bytes:
    """Pack one message as ``u32 env_len | JSON envelope | binary blob``.

    The value at ``path`` (e.g. ``("result",)`` or ``("args",
    "updates")``) is lifted out of the message into the blob; the
    envelope keeps everything else plus a ``_b`` marker ``[kind, *path]``
    telling the decoder where the value belongs.  Raises ``ValueError``
    when the value is outside the codec's contract and ``KeyError`` when
    ``path`` is absent from the message.
    """
    encode_blob = _BLOB_CODECS[kind][0]
    if len(path) == 1:
        value = message[path[0]]
        envelope = {k: v for k, v in message.items() if k != path[0]}
    else:
        inner = message[path[0]]
        value = inner[path[1]]
        envelope = dict(message)
        envelope[path[0]] = {k: v for k, v in inner.items() if k != path[1]}
    if isinstance(value, RecordsPayload):
        value = value.records
    envelope["_b"] = [kind, *path]
    blob = encode_blob(value)
    env = encode_payload(envelope)
    return _U32.pack(len(env)) + env + blob


def decode_binary_payload(payload: bytes) -> Dict[str, Any]:
    """Unpack a :data:`~repro.net.frames.FLAG_BINARY` payload.

    Returns the full message dict with the blob decoded back into place:
    ``recs`` blobs land as a :class:`RecordsPayload`, ``upds`` blobs as a
    list of :class:`~repro.types.EdgeUpdate`.  Truncated envelopes or
    blobs, unknown kinds, bad markers, and trailing bytes after the blob
    all raise :class:`~repro.net.errors.ProtocolError`.
    """
    if len(payload) < _U32.size:
        raise ProtocolError("binary payload shorter than its length prefix")
    (env_len,) = _U32.unpack_from(payload)
    if _U32.size + env_len > len(payload):
        raise ProtocolError(
            f"binary envelope of {env_len} bytes overruns the payload"
        )
    envelope = decode_payload(payload[_U32.size : _U32.size + env_len])
    marker = envelope.pop("_b", None)
    if (
        not isinstance(marker, list)
        or not 2 <= len(marker) <= 3
        or not all(isinstance(part, str) for part in marker)
    ):
        raise ProtocolError(f"bad binary payload marker {marker!r}")
    kind, path = marker[0], tuple(marker[1:])
    if kind not in _BLOB_CODECS:
        raise ProtocolError(f"unknown binary blob kind {kind!r}")
    reader = _BlobReader(payload, _U32.size + env_len)
    value: Any = _BLOB_CODECS[kind][1](reader)
    if reader.pos != len(payload):
        raise ProtocolError(
            f"{len(payload) - reader.pos} trailing bytes after binary blob"
        )
    if kind == "recs":
        value = RecordsPayload(value)
    if len(path) == 1:
        envelope[path[0]] = value
    else:
        inner = envelope.get(path[0])
        if not isinstance(inner, dict):
            raise ProtocolError(f"binary marker path {path!r} missing from envelope")
        inner[path[1]] = value
    return envelope


#: the request field each op ships as a blob: op -> (blob kind, arg name)
_REQUEST_BLOBS = {"put_edges": ("upds", "updates"), "put_record": ("recs", "record")}


def encode_message(message: Dict[str, Any]) -> Tuple[bytes, int]:
    """``(payload, frame flags)`` of one message, in its only wire form.

    A :class:`RecordsPayload` result and the blob field of a
    ``put_edges`` / ``put_record`` request travel as a binary blob
    (:data:`~repro.net.frames.FLAG_BINARY`); everything else is canonical
    JSON.  Raises ``ValueError`` for a value outside the blob's contract.
    """
    if isinstance(message.get("result"), RecordsPayload):
        kind, path = "recs", ("result",)
    elif message.get("op") in _REQUEST_BLOBS:
        kind, arg = _REQUEST_BLOBS[message["op"]]
        path = ("args", arg)
    else:
        return encode_payload(message), 0
    return encode_binary_payload(message, kind=kind, path=path), FLAG_BINARY


def decode_message(payload: bytes, flags: int) -> Dict[str, Any]:
    """The message :func:`encode_message` made ``(payload, flags)`` from."""
    if flags & FLAG_BINARY:
        return decode_binary_payload(payload)
    return decode_payload(payload)


def split_address(text: str) -> Tuple[str, int]:
    """Parse ``host:port`` (the CLI's ``--store-addr`` syntax)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise ValueError(f"address {text!r} is not host:port")
    return host, int(port)

"""Real network transport for the disaggregated store (paper §4.1, §7).

Layered bottom-up: :mod:`repro.net.frames` (length-prefixed framing),
:mod:`repro.net.wire` (the payload codec: canonical JSON plus binary blobs),
:mod:`repro.net.rpc` (deadlines, retries, fetch-ahead, one connection),
:mod:`repro.net.server` / :mod:`repro.net.client` (a
:class:`~repro.store.api.GraphStore` served over TCP and consumed through
the same protocol).  This package is the only place in the tree allowed
to touch raw sockets (repro-lint RL007).
"""

from repro.net.client import NetStoreClient
from repro.net.errors import (
    ApplicationError,
    NetError,
    ProtocolError,
    TransportError,
)
from repro.net.frames import (
    FLAG_BINARY,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    MessageType,
)
from repro.net.rpc import NetLog, RetryPolicy, RpcClient
from repro.net.server import StoreServer
from repro.net.wire import RecordsPayload, split_address

__all__ = [
    "ApplicationError",
    "FLAG_BINARY",
    "MAX_PAYLOAD",
    "MessageType",
    "NetError",
    "NetLog",
    "NetStoreClient",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RecordsPayload",
    "RetryPolicy",
    "RpcClient",
    "StoreServer",
    "TransportError",
    "split_address",
]

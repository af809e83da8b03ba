"""Length-prefixed wire format for the live RPC runtime.

Frame layout (integers big-endian)::

    [4-byte header length][header JSON (UTF-8)][body bytes]

The header is a flat JSON object carrying the message fields plus
``kind`` (``"req"`` / ``"resp"``) and ``body_len``; the body is opaque
zero padding standing in for the RPC payload, so a 64 KB WRITE really
moves ~64 KB through the socket while the metadata stays inspectable
with ``tcpdump``-level tooling.  JSON headers are a deliberate
trade-off: the live runtime validates admission *dynamics*, not wire
throughput, and a self-describing header format keeps the logs and the
wire mutually greppable.

Nothing here reads a clock or an RNG — framing is pure — so the module
needs no simlint suppressions.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import MISSING, dataclass, fields
from typing import Any, Dict, Tuple, Type, TypeVar, get_type_hints

_LEN = struct.Struct(">I")

#: Upper bounds enforced on receive, so a corrupt or hostile peer
#: cannot make `readexactly` buffer unbounded garbage.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

KIND_REQUEST = "req"
KIND_RESPONSE = "resp"

#: Reusable zero padding chunk for request bodies.
_ZERO_CHUNK = bytes(64 * 1024)


class FrameError(Exception):
    """A frame violated the format (bad prefix, oversize, bad JSON)."""


@dataclass(frozen=True)
class Request:
    """One RPC attempt as it crosses the wire (client -> server).

    ``traceparent`` is a W3C-style trace context (``00-<trace>-<span>-01``)
    propagated only when the client runs with tracing on; it is dropped
    from the encoded header when empty so untraced wire bytes are
    identical to the pre-tracing format.
    """

    request_id: int
    client: str
    qos_requested: int
    qos_run: int
    downgraded: bool
    payload_bytes: int
    size_mtus: int
    attempt: int
    issued_ns: int
    traceparent: str = ""


@dataclass(frozen=True)
class Response:
    """The server's completion record for one request.

    ``traceparent`` echoes the request's context back so the client can
    assert the join without trusting its own bookkeeping.
    """

    request_id: int
    status: str  # "ok" | "error"
    queue_ns: int
    service_ns: int
    traceparent: str = ""


_T = TypeVar("_T", Request, Response)

#: One compact encoder for every header (``json.dumps`` builds a fresh
#: ``JSONEncoder`` per call whenever separators are not the default).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


_KIND_OF: Dict[type, str] = {Request: KIND_REQUEST, Response: KIND_RESPONSE}


def _field_table(cls: type) -> Tuple[Tuple[str, type, Any], ...]:
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default) for f in fields(cls))


#: Per message class, built once at import: ``(name, exact type,
#: default)`` in declaration (= wire) order; ``MISSING`` marks a field
#: with no default.  Encode and decode both walk this table.
_FIELDS_OF: Dict[type, Tuple[Tuple[str, type, Any], ...]] = {
    cls: _field_table(cls) for cls in _KIND_OF
}


def encode_frame(message: "Request | Response", body_len: int = 0) -> bytes:
    """Serialize one message (header only; the body is written separately)."""
    header: Dict[str, Any] = {}
    for name, _, default in _FIELDS_OF[type(message)]:
        value = getattr(message, name)
        # A defaulted field (``traceparent``) is sent only when set: an
        # empty context never hits the wire, so untraced frames match
        # the pre-tracing format byte for byte.
        if default is MISSING or value != default:
            header[name] = value
    header["kind"] = _KIND_OF[type(message)]
    header["body_len"] = body_len
    blob = _encode_json(header).encode("utf-8")
    if len(blob) > MAX_HEADER_BYTES:
        raise FrameError(f"header too large: {len(blob)} bytes")
    return _LEN.pack(len(blob)) + blob


def decode_header(kind: str, header: Dict[str, Any], cls: Type[_T]) -> _T:
    """Build a typed message from a decoded header dict.

    Every field must be present (unless defaulted) and of exactly its
    declared type — ``true`` is not an int, ``1`` is not a bool — so a
    hostile header is a :class:`FrameError` here, never a ``TypeError``
    somewhere downstream.  Unknown keys are ignored.
    """
    expected = _KIND_OF[cls]
    if kind != expected:
        raise FrameError(f"expected a {expected!r} frame, got {kind!r}")
    values = []
    for name, field_type, default in _FIELDS_OF[cls]:
        value = header.get(name, default)
        if type(value) is not field_type:
            got = "nothing" if value is MISSING else type(value).__name__
            raise FrameError(
                f"malformed {kind!r} header: {name!r} must be "
                f"{field_type.__name__}, got {got}"
            )
        values.append(value)
    return cls(*values)


async def write_message(
    writer: asyncio.StreamWriter,
    message: "Request | Response",
    body_len: int = 0,
) -> None:
    """Write one frame (header + zero-padded body) and drain the socket.

    The header rides in the same ``write`` as the first body chunk, so a
    body that fits the zero chunk is one send, not two.
    """
    chunk = min(body_len, len(_ZERO_CHUNK))
    writer.write(encode_frame(message, body_len=body_len) + _ZERO_CHUNK[:chunk])
    remaining = body_len - chunk
    while remaining > 0:
        chunk = min(remaining, len(_ZERO_CHUNK))
        writer.write(_ZERO_CHUNK[:chunk])
        remaining -= chunk
    await writer.drain()


async def read_frame(reader: asyncio.StreamReader) -> Tuple[str, Dict[str, Any]]:
    """Read one frame; returns ``(kind, header)`` with the body consumed.

    Raises :class:`FrameError` on malformed input and
    ``asyncio.IncompleteReadError`` when the peer closes mid-frame (the
    caller treats that as connection loss).
    """
    (header_len,) = _LEN.unpack(await reader.readexactly(_LEN.size))
    if header_len == 0 or header_len > MAX_HEADER_BYTES:
        raise FrameError(f"implausible header length {header_len}")
    blob = await reader.readexactly(header_len)
    try:
        header = json.loads(blob)
    except (ValueError, RecursionError) as exc:  # bad bytes / absurd nesting
        raise FrameError(f"header is not JSON: {exc}")
    if not isinstance(header, dict) or "kind" not in header:
        raise FrameError("header must be a JSON object with a 'kind'")
    body_len = header.get("body_len", 0)
    if type(body_len) is not int or not 0 <= body_len <= MAX_BODY_BYTES:
        raise FrameError(f"implausible body length {body_len!r}")
    remaining = body_len
    while remaining > 0:
        chunk = await reader.readexactly(min(remaining, len(_ZERO_CHUNK)))
        remaining -= len(chunk)
    kind = header.pop("kind")
    return str(kind), header


__all__ = [
    "FrameError",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "Request",
    "Response",
    "decode_header",
    "encode_frame",
    "read_frame",
    "write_message",
]

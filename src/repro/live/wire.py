"""Length-prefixed wire format for the live RPC runtime.

Frame layout (integers big-endian)::

    [4-byte header length][header JSON (UTF-8, no BOM)][body bytes]

The header is a flat JSON object carrying the message fields plus
``kind`` (``"req"`` / ``"resp"``) and ``body_len``, encoded as UTF-8
and nothing else: a UTF-16/32 header or one led by a byte-order mark is
a :class:`FrameError` like any other malformed header.  The body is opaque
zero padding standing in for the RPC payload, so a 64 KB WRITE really
moves ~64 KB through the socket while the metadata stays inspectable
with ``tcpdump``-level tooling.  JSON headers are a deliberate
trade-off: the live runtime validates admission *dynamics*, not wire
throughput, and a self-describing header format keeps the logs and the
wire mutually greppable.

:class:`FrameParser` and :class:`FrameWriter` are the two ends of a
connection's framing, and both work per event-loop pass rather than per
frame: the parser takes the bytes of one ``read`` and yields every frame
they complete, the writer sends what one pass produced in at most two
``write`` calls.

Nothing here reads a clock or an RNG — framing is pure — so the module
needs no simlint suppressions.
"""

from __future__ import annotations

import asyncio
import json
import struct
from dataclasses import MISSING, dataclass, fields
from json.encoder import encode_basestring_ascii
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.net.packet import mtus_for_bytes

_LEN = struct.Struct(">I")

#: Upper bounds enforced on receive, so a corrupt or hostile peer
#: cannot make the parser buffer unbounded garbage.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

#: What one ``reader.read`` asks for on either end of a connection.
READ_BYTES = 64 * 1024

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


def request_size_mtus(payload_bytes: int) -> int:
    """The ``size_mtus`` a request of ``payload_bytes`` carries: its MTU
    count, an empty payload counting as one.  The client fills the field
    with it and the server holds every header it reads to it."""
    return mtus_for_bytes(max(1, payload_bytes))


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

#: One decoder for every header, fed text that :class:`FrameParser` has
#: decoded as strict UTF-8 (``json.loads(bytes)`` would first sniff
#: UTF-16/32 and strip a BOM — encodings the format does not have).
_decode_json = json.JSONDecoder().decode


_KIND_OF: Dict[type, str] = {Request: KIND_REQUEST, Response: KIND_RESPONSE}

#: ``(name, declared type, default)`` per field, in declaration order;
#: ``MISSING`` marks a field with no default.
FieldTable = Tuple[Tuple[str, Any, Any], ...]


def field_table(cls: type) -> FieldTable:
    """A dataclass's field table, with its type hints resolved."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.default) for f in fields(cls))


#: Per message class, built once at import; declaration order is wire
#: order, and a defaulted field is on the wire only when set.  The
#: compiled encoders, the generic encode path and ``decode_header`` all
#: come from this table.
_FIELDS_OF: Dict[type, FieldTable] = {cls: field_table(cls) for cls in _KIND_OF}


#: Per scalar type: the ``%`` conversion and the argument expression
#: that give the text ``json`` writes for an exact instance of it.
_SCALAR_FORMAT: Dict[type, Tuple[str, str]] = {
    int: ("%d", "{v}"),
    str: ("%s", "_str({v})"),
    bool: ("%s", "('true' if {v} else 'false')"),
    float: ("%s", "repr({v})"),
}


def compile_flat_encoder(
    table: FieldTable, head: str, tail: str
) -> Callable[..., Optional[str]]:
    """Compile ``encode(obj, *tail_args) -> Optional[str]`` for one
    dataclass-shaped record: a flat JSON object of ``table``'s fields.

    The result is straight-line code generated once from the table, the
    way ``dataclasses`` generates ``__init__``: read each attribute,
    check ``type(v) is <declared type>`` (or ``None`` for an
    ``Optional`` field), and produce the text in **one** ``%`` format
    operation — ``head`` (literal, up to where the first field starts),
    ``"name":value`` per field, then ``tail``, a ``%``-format string
    taking ``tail_args``.  A field with a default other than
    ``MISSING`` is written only when it differs from that default.

    ``encode`` returns ``None`` when any value is not exactly its
    declared type, or a float is not finite; the caller then hands the
    same record as a dict to the generic JSON encoder.  So the compiled
    path only ever sees values whose JSON text is known in advance
    (``%d``, ``encode_basestring_ascii``, ``true``/``false``/``null``,
    ``float.__repr__`` — what ``json`` itself uses), and every other
    input keeps the generic encoder's bytes: a ``float`` in an int
    field still goes out as ``1024.0``, never truncated.
    """
    tail_args = [f"t{i}" for i in range(tail.replace("%%", "").count("%"))]
    loads: List[str] = []
    guards: List[str] = []
    args: List[str] = []
    fmt = head.replace("%", "%%")
    namespace: Dict[str, Any] = {"_str": encode_basestring_ascii, "_INF": float("inf")}
    for index, (name, declared, default) in enumerate(table):
        v = f"v{index}"
        loads.append(f"    {v} = obj.{name}")
        optional = get_origin(declared) is Union
        if optional:
            declared, none = get_args(declared)
            if none is not type(None):
                raise ValueError(f"{name}: only Optional[...] unions compile")
        if declared not in _SCALAR_FORMAT:
            raise ValueError(f"{name}: no compiled encoding for {declared!r}")
        spec, arg = _SCALAR_FORMAT[declared]
        arg = arg.format(v=v)
        guard = f"type({v}) is not {declared.__name__}"
        if declared is float:
            guard += f" or not -_INF < {v} < _INF"  # false for NaN too
        key = ("," if index else "") + encode_basestring_ascii(name) + ":"
        if optional:
            guards.append(f"({v} is not None and ({guard}))")
            spec, arg = "%s", f"('null' if {v} is None else {arg})"
        else:
            guards.append(guard)
        if default is MISSING:
            fmt += key.replace("%", "%%") + spec
        else:
            # Written only when set (``traceparent``): key and value
            # ride in one ``%s`` slot that is empty at the default.
            if not index:
                raise ValueError(f"{name}: the first field cannot be omitted")
            namespace[f"d{index}"] = default
            fmt += "%s"
            arg = f"('' if {v} == d{index} else {key!r} + {spec!r} % {arg})"
        args.append(arg)
    namespace["_FMT"] = fmt + tail
    source = "\n".join(
        [
            f"def encode({', '.join(['obj'] + tail_args)}):",
            *loads,
            f"    if {' or '.join(guards)}:",
            "        return None",
            f"    return _FMT % ({', '.join(args + tail_args)},)",
        ]
    )
    exec(source, namespace)
    encode: Callable[..., Optional[str]] = namespace["encode"]
    return encode


#: Compiled at import, one per message class; ``body_len`` fills the
#: tail's ``%d``.
_ENCODER_OF: Dict[type, Callable[..., Optional[str]]] = {
    cls: compile_flat_encoder(
        _FIELDS_OF[cls], "{", ',"kind":"%s","body_len":%%d}' % kind
    )
    for cls, kind in _KIND_OF.items()
}


def encode_frame(message: "Request | Response", body_len: int = 0) -> bytes:
    """Serialize one message (header only; the body is written separately)."""
    cls = type(message)
    text = _ENCODER_OF[cls](message, body_len) if type(body_len) is int else None
    if text is None:
        # Some value is not of its declared type: the generic encoder
        # decides what it looks like (and the peer's type table what to
        # make of it).
        header: Dict[str, Any] = {}
        for name, _, default in _FIELDS_OF[cls]:
            value = getattr(message, name)
            # A defaulted field (``traceparent``) is sent only when set:
            # an empty context never hits the wire, so untraced frames
            # match the pre-tracing format byte for byte.
            if default is MISSING or value != default:
                header[name] = value
        header["kind"] = _KIND_OF[cls]
        header["body_len"] = body_len
        text = _encode_json(header)
    blob = text.encode("utf-8")
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


class FrameWriter:
    """The sending side of one connection, batching per event-loop pass.

    The first frame of a pass is written at once (a lone caller waits
    for nothing); frames that follow it in the same pass are held and
    leave together in one ``write`` when the pass ends, so a connection
    costs one ``send`` per pass however many frames its tasks produced.
    Order is the order of :meth:`send`: once a frame is held, every
    later one queues behind it.
    """

    __slots__ = ("transport", "_stream", "_call_soon", "_held", "_in_pass")

    def __init__(self, stream: asyncio.StreamWriter) -> None:
        self.transport = stream.transport
        self._stream = stream
        self._call_soon = asyncio.get_running_loop().call_soon
        self._held: List[bytes] = []
        self._in_pass = False

    def send(self, message: "Request | Response", body_len: int = 0) -> None:
        """Queue one frame (header + zero-padded body) without waiting.

        Raises ``ConnectionResetError`` on a closed or closing
        connection.  The header rides in the same ``write`` as the first
        body chunk, so a body that fits the zero chunk is one send.
        """
        if self.transport.is_closing():
            raise ConnectionResetError("Connection lost")
        chunk = min(body_len, len(_ZERO_CHUNK))
        frame = encode_frame(message, body_len=body_len) + _ZERO_CHUNK[:chunk]
        if self._in_pass:
            write = self._held.append
        else:
            self._in_pass = True
            self._call_soon(self._end_pass)
            write = self.transport.write
        write(frame)
        remaining = body_len - chunk
        while remaining > 0:
            chunk = min(remaining, len(_ZERO_CHUNK))
            write(_ZERO_CHUNK[:chunk])
            remaining -= chunk

    def _end_pass(self) -> None:
        self._in_pass = False
        if self._held:
            self.transport.write(b"".join(self._held))
            self._held.clear()

    async def drain(self) -> None:
        """Wait while the transport is over its high-water mark; a no-op
        unless it already holds bytes the kernel has not taken."""
        if self.transport.get_write_buffer_size():
            await self._stream.drain()

    def stalled(self) -> bool:
        """Whether the unsent backlog has passed the transport's
        high-water mark — what ``drain()`` would wait out."""
        backlog = self.transport.get_write_buffer_size()
        if not backlog:  # the usual case, and one call instead of two
            return False
        return backlog > self.transport.get_write_buffer_limits()[1]

    def is_closing(self) -> bool:
        return self.transport.is_closing()

    def close(self) -> None:
        self._stream.close()


class FrameParser:
    """Synchronous incremental frame decoder, one per connection.

    :meth:`feed` takes whatever a ``read`` returned and yields
    ``(kind, header)`` for every frame those bytes complete: a frame is
    yielded only once its whole body has arrived, bodies are skipped by
    count (never buffered: what is kept between calls is at most one
    unfinished header), and the first malformed frame raises
    :class:`FrameError` *after* the well-formed frames before it have
    been yielded.  The caller feeds it ``await reader.read(READ_BYTES)``
    and treats an empty read as the loss of the connection, mid-frame or
    not.
    """

    __slots__ = ("_buf", "_skip", "_frame")

    def __init__(self) -> None:
        #: Bytes from a frame boundary on that do not complete a header.
        self._buf = b""
        #: Body bytes of ``_frame`` still to arrive (``_buf`` is empty).
        self._skip = 0
        self._frame: Optional[Tuple[str, Dict[str, Any]]] = None

    def feed(self, data: bytes) -> Iterator[Tuple[str, Dict[str, Any]]]:
        skip = self._skip
        if skip > len(data):
            self._skip = skip - len(data)
            return
        buf = self._buf + data if self._buf else data
        pos = skip
        end = len(buf)
        try:
            if skip:
                self._skip = 0
                frame, self._frame = self._frame, None
                assert frame is not None  # set together with _skip
                yield frame
            while end - pos >= _LEN.size:
                (header_len,) = _LEN.unpack_from(buf, pos)
                start = pos + _LEN.size
                if header_len == 0 or header_len > MAX_HEADER_BYTES:
                    pos = start
                    raise FrameError(f"implausible header length {header_len}")
                if start + header_len > end:
                    break
                pos = start + header_len
                try:
                    header = _decode_json(buf[start:pos].decode("utf-8"))
                except (ValueError, RecursionError) as exc:  # bad bytes / nesting
                    raise FrameError(f"header is not JSON: {exc}")
                if not isinstance(header, dict) or "kind" not in header:
                    raise FrameError("header must be a JSON object with a 'kind'")
                body_len = header.get("body_len", 0)
                if type(body_len) is not int or not 0 <= body_len <= MAX_BODY_BYTES:
                    raise FrameError(f"implausible body length {body_len!r}")
                frame = str(header.pop("kind")), header
                pos += body_len
                if pos > end:
                    self._skip = pos - end
                    self._frame = frame
                    pos = end
                    break
                yield frame
        finally:
            # Also when the consumer stops early or a frame is malformed:
            # what is left is exactly what has not been consumed.
            self._buf = buf[pos:]


__all__ = [
    "FrameError",
    "FrameParser",
    "FrameWriter",
    "KIND_REQUEST",
    "KIND_RESPONSE",
    "MAX_BODY_BYTES",
    "MAX_HEADER_BYTES",
    "READ_BYTES",
    "Request",
    "Response",
    "compile_flat_encoder",
    "decode_header",
    "encode_frame",
    "field_table",
    "request_size_mtus",
]

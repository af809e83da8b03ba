"""The live runtime's length-prefixed wire format.

Framing is pure (no clocks, no RNG, no event loop), so these tests feed
bytes straight to a :class:`FrameParser`: well-formed frames round-trip
exactly, bodies are consumed without corrupting frame boundaries, and
every malformed-input class maps to a typed :class:`FrameError`.  A
truncated frame yields nothing: the connection layers see the stream
end and treat it as peer loss, not corruption.
"""

import dataclasses
import json
import random
import struct
from typing import Optional, Union

import pytest

from repro.live.wire import (
    KIND_REQUEST,
    KIND_RESPONSE,
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    FrameError,
    FrameParser,
    Request,
    Response,
    compile_flat_encoder,
    decode_header,
    encode_frame,
    field_table,
)

REQUEST = Request(
    request_id=3,
    client="c0",
    qos_requested=0,
    qos_run=1,
    downgraded=True,
    payload_bytes=4096,
    size_mtus=1,
    attempt=2,
    issued_ns=123_456,
)

RESPONSE = Response(request_id=3, status="ok", queue_ns=10, service_ns=20)

TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


def read_from_bytes(payload: bytes):
    """Parse the one frame that ``payload`` holds."""
    (frame,) = FrameParser().feed(payload)
    return frame


class TestRoundTrip:
    def test_request_round_trips(self):
        kind, header = read_from_bytes(encode_frame(REQUEST))
        assert kind == KIND_REQUEST
        assert decode_header(kind, header, Request) == REQUEST

    def test_response_round_trips(self):
        kind, header = read_from_bytes(encode_frame(RESPONSE))
        assert kind == KIND_RESPONSE
        assert decode_header(kind, header, Response) == RESPONSE

    def test_body_consumed_without_breaking_framing(self):
        """A padded request body must not bleed into the next frame."""
        body_len = 10_000
        payload = (
            encode_frame(REQUEST, body_len=body_len)
            + bytes(body_len)
            + encode_frame(RESPONSE)
        )
        (kind1, header1), (kind2, header2) = FrameParser().feed(payload)
        assert decode_header(kind1, header1, Request) == REQUEST
        assert decode_header(kind2, header2, Response) == RESPONSE
        assert header1["body_len"] == body_len

    def test_extra_header_fields_are_ignored(self):
        """Forward compatibility: unknown header keys don't break decode."""
        kind, header = read_from_bytes(encode_frame(RESPONSE))
        header["future_field"] = "whatever"
        assert decode_header(kind, header, Response) == RESPONSE


class TestGoldenBytes:
    """Literal wire bytes: key order, separators and the popped-when-empty
    ``traceparent`` are part of the format, not an encoder accident."""

    def test_untraced_request(self):
        assert encode_frame(REQUEST, body_len=4096) == (
            b"\x00\x00\x00\xad"
            b'{"request_id":3,"client":"c0","qos_requested":0,"qos_run":1,'
            b'"downgraded":true,"payload_bytes":4096,"size_mtus":1,"attempt":2,'
            b'"issued_ns":123456,"kind":"req","body_len":4096}'
        )

    def test_traced_request(self):
        traced = dataclasses.replace(REQUEST, traceparent=TRACEPARENT)
        assert encode_frame(traced, body_len=4096) == (
            b"\x00\x00\x00\xf5"
            b'{"request_id":3,"client":"c0","qos_requested":0,"qos_run":1,'
            b'"downgraded":true,"payload_bytes":4096,"size_mtus":1,"attempt":2,'
            b'"issued_ns":123456,'
            b'"traceparent":"00-abababababababababababababababab-cdcdcdcdcdcdcdcd-01",'
            b'"kind":"req","body_len":4096}'
        )

    def test_response(self):
        assert encode_frame(RESPONSE) == (
            b"\x00\x00\x00W"
            b'{"request_id":3,"status":"ok","queue_ns":10,"service_ns":20,'
            b'"kind":"resp","body_len":0}'
        )
        traced = dataclasses.replace(RESPONSE, traceparent=TRACEPARENT)
        assert encode_frame(traced) == (
            b"\x00\x00\x00\x9f"
            b'{"request_id":3,"status":"ok","queue_ns":10,"service_ns":20,'
            b'"traceparent":"00-abababababababababababababababab-cdcdcdcdcdcdcdcd-01",'
            b'"kind":"resp","body_len":0}'
        )


@dataclasses.dataclass
class Sample:
    """One field of every type the compiler knows, plus an omitted-when-
    default one and a name that needs escaping in a ``%`` format."""

    n: int
    s: str
    b: bool
    f: float
    on: "Optional[int]"
    ob: "Optional[bool]"
    tag: str = ""


class TestCompileFlatEncoder:
    def encoder(self):
        return compile_flat_encoder(field_table(Sample), '{"100%":1,', ',"end":%d}%s')

    def test_compiled_text_is_what_json_writes(self):
        encode = self.encoder()
        for sample in (
            Sample(n=-7, s='q"\\☃\x00', b=True, f=1e-05, on=None, ob=None),
            Sample(n=10**30, s="", b=False, f=-0.0, on=0, ob=False, tag="x"),
        ):
            fields_ = dataclasses.asdict(sample)
            if not sample.tag:
                del fields_["tag"]
            record = {"100%": 1, **fields_, "end": 5}
            assert encode(sample, 5, "\n") == (
                json.dumps(record, separators=(",", ":")) + "\n"
            )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", True), ("n", 1.0), ("n", None), ("s", b"x"), ("b", 1), ("b", None),
            ("f", 1), ("f", float("nan")), ("f", float("inf")), ("f", float("-inf")),
            ("on", 1.0), ("on", False), ("ob", 0), ("tag", None),
        ],
    )
    def test_anything_not_exactly_typed_is_left_to_the_caller(self, field, value):
        good = Sample(n=1, s="x", b=True, f=0.5, on=2, ob=True)
        encode = self.encoder()
        assert encode(good, 0, "") is not None
        assert encode(dataclasses.replace(good, **{field: value}), 0, "") is None

    def test_shapes_that_do_not_compile(self):
        with pytest.raises(ValueError, match="no compiled encoding"):
            compile_flat_encoder((("xs", list, dataclasses.MISSING),), "{", "}")
        with pytest.raises(ValueError, match="Optional"):
            compile_flat_encoder(
                (("x", Union[int, str], dataclasses.MISSING),), "{", "}"
            )
        with pytest.raises(ValueError, match="first field"):
            compile_flat_encoder((("tag", str, ""),), "{", "}")


def frame_with_header(blob: bytes) -> bytes:
    return struct.pack(">I", len(blob)) + blob


class TestMalformedInput:
    def test_zero_header_length_rejected(self):
        with pytest.raises(FrameError):
            read_from_bytes(struct.pack(">I", 0))

    def test_oversize_header_length_rejected(self):
        with pytest.raises(FrameError):
            read_from_bytes(struct.pack(">I", MAX_HEADER_BYTES + 1))

    def test_non_json_header_rejected(self):
        with pytest.raises(FrameError):
            read_from_bytes(frame_with_header(b"\xff\xfe not json"))

    @pytest.mark.parametrize(
        "encoding",
        [
            "utf-8-sig",  # UTF-8 behind a byte-order mark
            "utf-16",  # BOM, then native order
            "utf-16-le",
            "utf-16-be",
            "utf-32",
            "utf-32-le",
            "utf-32-be",
        ],
    )
    def test_header_in_another_unicode_encoding_rejected(self, encoding):
        """The header is UTF-8 with no BOM.  ``json.loads(bytes)`` would
        sniff every one of these and decode it; the parser does not."""
        header = encode_frame(REQUEST)[4:].decode("utf-8")
        assert json.loads(header.encode(encoding))["request_id"] == 3
        with pytest.raises(FrameError, match="not JSON"):
            read_from_bytes(frame_with_header(header.encode(encoding)))

    def test_surrogate_bytes_in_header_rejected(self):
        """Strict UTF-8: an encoded lone surrogate is not a code point."""
        blob = b'{"kind":"req","client":"\xed\xa0\x80"}'
        assert json.loads(blob)["client"] == "\ud800"
        with pytest.raises(FrameError, match="not JSON"):
            read_from_bytes(frame_with_header(blob))

    def test_non_ascii_utf8_header_accepted(self):
        blob = '{"kind":"req","client":"naïve-☃","body_len":0}'.encode("utf-8")
        assert read_from_bytes(frame_with_header(blob)) == (
            "req", {"client": "naïve-☃", "body_len": 0},
        )

    def test_pathologically_nested_header_rejected(self):
        """The JSON scanner's RecursionError is a format violation too."""
        with pytest.raises(FrameError):
            read_from_bytes(frame_with_header(b"[" * 60_000))

    def test_non_object_header_rejected(self):
        with pytest.raises(FrameError):
            read_from_bytes(frame_with_header(b"[1,2,3]"))

    def test_header_without_kind_rejected(self):
        with pytest.raises(FrameError):
            read_from_bytes(frame_with_header(b'{"request_id":1}'))

    def test_implausible_body_length_rejected(self):
        blob = json.dumps(
            {"kind": KIND_REQUEST, "body_len": MAX_BODY_BYTES + 1}
        ).encode()
        with pytest.raises(FrameError):
            read_from_bytes(frame_with_header(blob))

    def test_negative_body_length_rejected(self):
        blob = json.dumps({"kind": KIND_REQUEST, "body_len": -1}).encode()
        with pytest.raises(FrameError):
            read_from_bytes(frame_with_header(blob))

    @pytest.mark.parametrize("body_len", [None, "abc", "12", [1], {}, True, 1.5])
    def test_non_integer_body_length_rejected(self, body_len):
        blob = json.dumps({"kind": KIND_REQUEST, "body_len": body_len}).encode()
        with pytest.raises(FrameError):
            read_from_bytes(frame_with_header(blob))

    def test_truncated_frame_yields_nothing(self):
        payload = encode_frame(REQUEST, body_len=10) + bytes(10)
        for length in (len(payload) // 2, len(payload) - 1):
            assert list(FrameParser().feed(payload[:length])) == []

    def test_truncated_length_prefix_yields_nothing(self):
        assert list(FrameParser().feed(b"\x00\x00")) == []


class TestDecodeHeader:
    def test_kind_mismatch_rejected(self):
        kind, header = read_from_bytes(encode_frame(REQUEST))
        with pytest.raises(FrameError):
            decode_header(kind, header, Response)

    def test_missing_required_field_rejected(self):
        kind, header = read_from_bytes(encode_frame(RESPONSE))
        del header["status"]
        with pytest.raises(FrameError):
            decode_header(kind, header, Response)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("size_mtus", "x"),
            ("qos_run", None),
            ("qos_run", 1.0),
            ("request_id", True),  # a JSON bool is not an int ...
            ("downgraded", 1),  # ... and an int is not a bool
            ("client", 7),
            ("traceparent", 7),
        ],
    )
    def test_wrong_typed_field_rejected(self, field, value):
        kind, header = read_from_bytes(encode_frame(REQUEST))
        header[field] = value
        with pytest.raises(FrameError, match=field):
            decode_header(kind, header, Request)

    def test_oversize_outgoing_header_rejected(self):
        huge = Request(
            request_id=1,
            client="x" * (MAX_HEADER_BYTES + 1),
            qos_requested=0,
            qos_run=0,
            downgraded=False,
            payload_bytes=0,
            size_mtus=1,
            attempt=1,
            issued_ns=0,
        )
        with pytest.raises(FrameError):
            encode_frame(huge)


class TestFuzz:
    """ROADMAP fault-plane oracle 3, smallest cut: whatever bytes arrive,
    the receive path ends in a typed message, ``FrameError`` or an
    unfinished frame — never an exception of another type."""

    JUNK = (None, True, False, 0, -1, 2**63, 1.5, "", "x", [], [1], {}, {"a": 1})

    def mutate(self, rng: random.Random, frame: bytes) -> bytes:
        header = json.loads(frame[4:])
        choice = rng.randrange(7)
        if choice == 0:  # flip the type of some fields
            for key in rng.sample(sorted(header), rng.randint(1, 3)):
                header[key] = rng.choice(self.JUNK)
        elif choice == 1:  # drop keys
            for key in rng.sample(sorted(header), rng.randint(1, 3)):
                del header[key]
        elif choice == 2:  # add keys
            for i in range(rng.randint(1, 3)):
                header[f"extra{i}"] = rng.choice(self.JUNK)
        elif choice == 3:  # truncate anywhere, prefix included
            return frame[: rng.randrange(len(frame))]
        elif choice == 4:  # lie in the length prefix
            lie = rng.choice(
                [0, 1, len(frame) - 5, len(frame), MAX_HEADER_BYTES + 1, 2**32 - 1]
            )
            return struct.pack(">I", lie) + frame[4:]
        elif choice == 5:  # nest, sometimes past the scanner's limit
            return frame_with_header(b"[" * rng.choice([1, 50, 5_000, 60_000]))
        else:  # corrupt header bytes
            blob = bytearray(frame)
            for _ in range(rng.randint(1, 4)):
                blob[rng.randrange(4, len(blob))] = rng.randrange(256)
            return bytes(blob)
        return frame_with_header(json.dumps(header).encode())

    def test_receive_path_outcomes_are_typed(self):
        rng = random.Random(20220822)
        seeds = [
            (encode_frame(REQUEST), Request),
            (
                encode_frame(dataclasses.replace(REQUEST, traceparent=TRACEPARENT)),
                Request,
            ),
            (encode_frame(RESPONSE), Response),
        ]
        outcomes = {"message": 0, "FrameError": 0, "unfinished": 0}
        for _ in range(3000):
            frame, cls = rng.choice(seeds)
            try:
                frames = list(FrameParser().feed(self.mutate(rng, frame)))
                messages = [decode_header(kind, header, cls) for kind, header in frames]
            except FrameError:
                outcomes["FrameError"] += 1
            else:
                assert [type(message) for message in messages] in ([], [cls])
                outcomes["message" if messages else "unfinished"] += 1
        # The mutations really reach all three outcomes.
        assert all(outcomes.values()), outcomes

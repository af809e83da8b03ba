"""``FrameParser.feed`` held to the reader it replaced.

:func:`read_frame` below is what both ends of a connection ran until
the parser took over: one ``await readexactly`` per field of one frame.
It stays here as the reference.  The parser takes bytes as a ``read``
delivers them — any number of frames, cut anywhere — and whatever the
bytes and wherever the cuts, both must produce the same frames, the same
``FrameError`` message at the same frame, and have consumed the same
bytes when it is raised.  A stream that ends mid-frame is
``IncompleteReadError`` to ``read_frame`` and simply an unfinished frame
to the parser: the connection layers treat the end of the stream as peer
loss either way.
"""

import asyncio
import dataclasses
import json
import random
import struct
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.live.wire import (
    MAX_BODY_BYTES,
    MAX_HEADER_BYTES,
    FrameError,
    FrameParser,
    encode_frame,
)
from tests import test_live_wire
from tests.test_live_wire import REQUEST, RESPONSE, TRACEPARENT

Frame = Tuple[str, Dict[str, Any]]
#: Frames, the ``FrameError`` message if one was raised, bytes consumed.
Outcome = Tuple[List[Frame], Optional[str], int]

CHUNK = bytes(64 * 1024)


async def read_frame(reader: asyncio.StreamReader) -> Frame:
    """Read one frame; returns ``(kind, header)`` with the body consumed."""
    (header_len,) = struct.unpack(">I", await reader.readexactly(4))
    if header_len == 0 or header_len > MAX_HEADER_BYTES:
        raise FrameError(f"implausible header length {header_len}")
    blob = await reader.readexactly(header_len)
    try:
        header = json.JSONDecoder().decode(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"header is not JSON: {exc}")
    if not isinstance(header, dict) or "kind" not in header:
        raise FrameError("header must be a JSON object with a 'kind'")
    body_len = header.get("body_len", 0)
    if type(body_len) is not int or not 0 <= body_len <= MAX_BODY_BYTES:
        raise FrameError(f"implausible body length {body_len!r}")
    remaining = body_len
    while remaining > 0:
        chunk = await reader.readexactly(min(remaining, len(CHUNK)))
        remaining -= len(chunk)
    kind = header.pop("kind")
    return str(kind), header


def by_read_frame(stream: bytes) -> Outcome:
    """The reference: a ``read_frame`` loop over the whole stream."""

    async def _run() -> Outcome:
        reader = asyncio.StreamReader()
        reader.feed_data(stream)
        reader.feed_eof()
        frames: List[Frame] = []
        while True:
            try:
                frames.append(await read_frame(reader))
            except FrameError as exc:
                return frames, str(exc), len(stream) - len(reader._buffer)
            except asyncio.IncompleteReadError:
                return frames, None, len(stream)

    return asyncio.run(_run())


def by_parser(chunks: Sequence[bytes]) -> Outcome:
    parser = FrameParser()
    frames: List[Frame] = []
    fed = 0
    for chunk in chunks:
        fed += len(chunk)
        try:
            for frame in parser.feed(chunk):
                # Only a frame whose body is all there may be acted on.
                assert parser._skip == 0
                frames.append(frame)
        except FrameError as exc:
            return frames, str(exc), fed - len(parser._buf)
        assert len(parser._buf) < 4 + MAX_HEADER_BYTES
    return frames, None, fed


def cut(stream: bytes, points: Sequence[int]) -> List[bytes]:
    edges = [0, *sorted(p % (len(stream) + 1) for p in points), len(stream)]
    return [stream[a:b] for a, b in zip(edges, edges[1:])]


def good_frame(index: int, body_len: int) -> bytes:
    message = (
        REQUEST,
        RESPONSE,
        dataclasses.replace(REQUEST, traceparent=TRACEPARENT, request_id=index),
    )[index % 3]
    return encode_frame(message, body_len=body_len) + bytes(body_len)


def fuzz_corpus() -> List[bytes]:
    """The 3 000 mutated frames ``TestFuzz`` throws at the receive path."""
    rng = random.Random(20220822)
    fuzz = test_live_wire.TestFuzz()
    seeds = [good_frame(i, 0) for i in range(3)]
    return [fuzz.mutate(rng, rng.choice(seeds)) for _ in range(3000)]


CORPUS = fuzz_corpus()

BODY_LENS = st.sampled_from([0, 1, 3, 1024, 4096, 65_535, 65_536, 65_537, 200 * 1024])
PIECES = st.one_of(
    st.builds(good_frame, st.integers(0, 5), BODY_LENS),
    st.sampled_from(CORPUS),
    st.binary(max_size=12),
)
STREAMS = st.lists(PIECES, max_size=6).map(b"".join)
CUTS = st.lists(st.integers(0, 2**20), max_size=12)


@settings(max_examples=300, deadline=None)
@given(stream=STREAMS, points=CUTS)
@example(stream=good_frame(0, 1024) * 3, points=[])  # one read, three frames
@example(stream=good_frame(0, 1024) + b"\x00\x00\x00\x00", points=[5])
@example(stream=good_frame(1, 0) + struct.pack(">I", 7) + b"[1,2,3]" + b"x", points=[])
def test_any_stream_in_any_chunks_parses_as_read_frame_does(stream, points):
    assert by_parser(cut(stream, points)) == by_read_frame(stream)


def test_fuzz_corpus_behind_good_frames_cut_three_ways():
    rng = random.Random(23)
    outcomes = {"clean": 0, "FrameError": 0}
    for mutated in CORPUS:
        lead = rng.randrange(3)
        stream = b"".join(good_frame(i, 10 * i) for i in range(lead)) + mutated
        expected = by_read_frame(stream)
        assert len(expected[0]) >= lead
        outcomes["clean" if expected[1] is None else "FrameError"] += 1
        whole = [stream]
        single_bytes = [stream[i : i + 1] for i in range(len(stream))]
        anywhere = cut(stream, [rng.randrange(2**20) for _ in range(rng.randrange(6))])
        for chunks in (whole, anywhere) + ((single_bytes,) if len(stream) < 600 else ()):
            assert by_parser(chunks) == expected
    assert all(outcomes.values()), outcomes


def test_largest_body_passes_without_being_buffered():
    parser = FrameParser()
    head = encode_frame(REQUEST, body_len=MAX_BODY_BYTES)
    assert list(parser.feed(head + CHUNK[:100])) == []
    passed = 100
    while passed + len(CHUNK) < MAX_BODY_BYTES:
        assert list(parser.feed(CHUNK)) == []
        assert parser._buf == b""
        passed += len(CHUNK)
    # The last of the body arrives with the next frame and half of a third.
    tail = CHUNK[: MAX_BODY_BYTES - passed] + good_frame(1, 0)
    third = good_frame(2, 5)
    frames = list(parser.feed(tail + third[:40]))
    assert [kind for kind, _ in frames] == ["req", "resp"]
    assert frames[0][1]["body_len"] == MAX_BODY_BYTES
    assert parser._buf == third[:40]
    assert [kind for kind, _ in parser.feed(third[40:])] == ["req"]
    assert parser._buf == b"" and parser._skip == 0


def test_a_consumer_that_stops_early_loses_nothing():
    parser = FrameParser()
    stream = good_frame(0, 0) + good_frame(1, 0) + good_frame(2, 0)
    first = next(parser.feed(stream))  # generator dropped after one frame
    rest = list(parser.feed(b""))
    assert [first[0], *(kind for kind, _ in rest)] == ["req", "resp", "req"]

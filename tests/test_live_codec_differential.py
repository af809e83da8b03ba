"""Differential test of the live codecs against plain ``json.dumps``.

The wire header and the three span log lines are *formats*: key order,
compact separators, ``ensure_ascii`` escapes and ``float.__repr__`` are
what peers and log consumers parse.  Whatever produces them, the bytes
must equal what the obvious dictionary handed to ``json.dumps`` gives —
for well-typed records and equally for the wrong-typed ones a dataclass
happily holds (a ``float`` in an int field must reach the peer's type
table as ``1024.0``, not be truncated to ``1024``).

The reference below is built from ``dataclasses.asdict`` and
``json.dumps`` only; it shares no code with ``repro.live``.
"""

import enum
import json
import struct
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.live import events, wire
from repro.live.events import EventLog
from repro.live.wire import Request, Response, encode_frame
from repro.obs.trace import AdmissionEvent, QueueSpan, RpcSpan

_LEN = struct.Struct(">I")


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 3


class Tag(str, enum.Enum):
    OK = "ok"


FLOATS = st.sampled_from(
    [
        float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1.0, 0.5, 1e-05,
        1e22, 1e16, 5e-324, 2.2250738585072014e-308, 1024.0, 0.1 + 0.2,
    ]
) | st.floats()
INTS = (
    st.integers(-5, 5)
    | st.integers(-(2**70), 2**70)
    | st.sampled_from([10**30, -(10**30), 2**63, 12_345_678_901])
)
#: Non-ASCII, control characters, quotes, backslashes and lone surrogates.
TEXT = st.text(alphabet=st.characters(), max_size=12) | st.sampled_from(
    ["", "c0", "srv", 'q"uo\\te', "\x00\x1f\x7f", "naïve-☃-\U0001f600", "\ud800"]
)
BOOLS = st.booleans()
NONE = st.none()
ENUMS = st.sampled_from([Level.LOW, Level.HIGH, Tag.OK])
ANYTHING = st.one_of(INTS, FLOATS, TEXT, BOOLS, NONE, ENUMS)
TRACEPARENTS = TEXT | st.sampled_from(
    ["", "", "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"]
)


@st.composite
def records(draw, cls, **declared):
    """An instance of ``cls`` with every field of its declared type,
    then up to three fields overwritten with any scalar at all — so about
    half the examples are well-typed throughout and the rest are wrong
    in few enough places to say which one mattered."""
    values = {name: draw(strategy) for name, strategy in declared.items()}
    wrong = draw(st.lists(st.sampled_from(sorted(declared)), max_size=3, unique=True))
    for name in wrong:
        values[name] = draw(ANYTHING)
    return cls(**values)


REQUESTS = records(
    Request,
    request_id=INTS, client=TEXT, qos_requested=INTS, qos_run=INTS, downgraded=BOOLS,
    payload_bytes=INTS, size_mtus=INTS, attempt=INTS, issued_ns=INTS,
    traceparent=TRACEPARENTS,
)
RESPONSES = records(
    Response,
    request_id=INTS, status=TEXT, queue_ns=INTS, service_ns=INTS,
    traceparent=TRACEPARENTS,
)
RPC_SPANS = records(
    RpcSpan,
    rpc_id=INTS, src=INTS, dst=INTS, qos_requested=INTS, qos_run=INTS,
    downgraded=BOOLS, issued_ns=INTS, payload_bytes=INTS, size_mtus=INTS,
    completed_ns=INTS | NONE, rnl_ns=INTS | NONE, slo_met=BOOLS | NONE,
    terminated=BOOLS,
)
QUEUE_SPANS = records(
    QueueSpan,
    node=TEXT, qos=INTS, enqueued_ns=INTS, dequeued_ns=INTS, size_bytes=INTS,
    kind=INTS, rpc_id=INTS,
)
ADMISSION_EVENTS = records(
    AdmissionEvent,
    time_ns=INTS, channel=TEXT, qos=INTS, p_admit=FLOATS, kind=TEXT, rpc_id=INTS,
)
BODY_LENS = st.one_of(*[st.integers(0, 2**23)] * 3, ANYTHING)

#: Traced ``**extra``: the real keys, arbitrary keys, and keys that
#: collide with a span field or with ``type`` (a later key of the
#: merged dict replaces the value *in place*; it is not appended).
#: ``self`` and ``span`` are the writers' own parameter names, which no
#: keyword argument can carry.
EXTRA_KEYS = st.sampled_from(
    [
        "trace_id", "span_id", "parent_id", "decide_ns", "attempts",
        "type", "rpc_id", "qos", "kind", "node", "terminated", "p_admit",
    ]
) | st.text(max_size=6).filter(lambda key: key not in ("self", "span"))
EXTRA_VALUES = st.one_of(
    ANYTHING,
    st.lists(ANYTHING, max_size=3),
    st.dictionaries(st.text(max_size=4), ANYTHING, max_size=2),
)
EXTRAS = st.just({}) | st.dictionaries(EXTRA_KEYS, EXTRA_VALUES, max_size=4)


def dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def reference_frame(message, kind: str, body_len) -> bytes:
    header = asdict(message)
    if header["traceparent"] == "":
        del header["traceparent"]  # never on the wire when unset
    header["kind"] = kind
    header["body_len"] = body_len
    blob = dumps(header).encode()
    return _LEN.pack(len(blob)) + blob


@settings(max_examples=400, deadline=None)
@given(message=REQUESTS | RESPONSES, body_len=BODY_LENS)
@example(
    message=Request(
        request_id=1, client="c0", qos_requested=0, qos_run=0, downgraded=False,
        payload_bytes=1024.0, size_mtus=True, attempt=Level.HIGH, issued_ns=10**30,
    ),
    body_len=1024,
)
@example(
    message=Response(request_id=None, status=Tag.OK, queue_ns=-0.0, service_ns="7"),
    body_len=False,
)
def test_wire_header_is_json_dumps_of_the_fields(message, body_len):
    kind = "req" if type(message) is Request else "resp"
    assert encode_frame(message, body_len) == reference_frame(message, kind, body_len)


def written(write) -> str:
    """What one ``EventLog`` call puts in the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.jsonl"
        with EventLog(path) as log:
            write(log)
        return path.read_bytes().decode("utf-8")


def reference_line(kind: str, span, extra) -> str:
    return dumps({"type": kind, **asdict(span), **extra}) + "\n"


@settings(max_examples=250, deadline=None)
@given(span=RPC_SPANS, extra=EXTRAS)
@example(
    span=RpcSpan(
        rpc_id=10**30, src=0.0, dst=Level.LOW, qos_requested=None, qos_run="1",
        downgraded=0, issued_ns=True, payload_bytes=1024, size_mtus=1,
        completed_ns=1.5, rnl_ns=False, slo_met=1, terminated=None,
    ),
    extra={"trace_id": "ab" * 16, "rpc_id": 7, "type": "other"},
)
def test_rpc_line_is_json_dumps_of_the_span(span, extra):
    assert written(lambda log: log.rpc(span, **extra)) == reference_line(
        "rpc", span, extra
    )


@settings(max_examples=250, deadline=None)
@given(span=QUEUE_SPANS, extra=EXTRAS)
@example(
    span=QueueSpan(
        node="naïve-☃", qos=True, enqueued_ns=1.0, dequeued_ns=None,
        size_bytes=Level.HIGH, kind="0", rpc_id=-(10**30),
    ),
    extra={"parent_id": "cd" * 8, "node": None},
)
@example(
    span=QueueSpan(
        node="srv", qos=True, enqueued_ns=1, dequeued_ns=2, size_bytes=3, kind=0
    ),
    extra={},
)
@example(
    span=QueueSpan(
        node=Tag.OK, qos=0, enqueued_ns=1, dequeued_ns=2, size_bytes=3, kind=0
    ),
    extra={"trace_id": "ab" * 16},
)
def test_queue_line_is_json_dumps_of_the_span(span, extra):
    assert written(lambda log: log.queue(span, **extra)) == reference_line(
        "queue", span, extra
    )


@settings(max_examples=250, deadline=None)
@given(event=ADMISSION_EVENTS)
@example(
    event=AdmissionEvent(
        time_ns=1, channel="c0->srv", qos=0, p_admit=float("nan"), kind="decrease"
    )
)
@example(
    event=AdmissionEvent(
        time_ns=1, channel="c0->srv", qos=0, p_admit=1, kind="increase", rpc_id=9
    )
)
@example(
    event=AdmissionEvent(
        time_ns=Level.HIGH, channel="c0->srv", qos=True, p_admit=0.5, kind="decrease"
    )
)
def test_admission_line_is_json_dumps_of_the_event(event):
    assert written(lambda log: log.admission(event)) == reference_line(
        "admission", event, {}
    )


# ----------------------------------------------------------------------
# Which path wrote the bytes
# ----------------------------------------------------------------------
@pytest.fixture
def generic_calls(monkeypatch):
    """Every object handed to the generic JSON encoder of either module."""
    calls = []
    for module in (wire, events):

        def spy(obj, _generic=module._encode_json):
            calls.append(obj)
            return _generic(obj)

        monkeypatch.setattr(module, "_encode_json", spy)
    return calls


REQUEST = Request(
    request_id=3, client="c0", qos_requested=0, qos_run=1, downgraded=True,
    payload_bytes=4096, size_mtus=1, attempt=2, issued_ns=123_456,
)
RESPONSE = Response(request_id=3, status="ok", queue_ns=10, service_ns=20)
RPC = RpcSpan(
    rpc_id=1, src=0, dst=0, qos_requested=0, qos_run=0, downgraded=False,
    issued_ns=100, payload_bytes=4096, size_mtus=1, completed_ns=200, rnl_ns=100,
    slo_met=True,
)
QUEUE = QueueSpan(
    node="srv", qos=0, enqueued_ns=100, dequeued_ns=150, size_bytes=4096, kind=0
)
ADMISSION = AdmissionEvent(
    time_ns=150, channel="c0->srv", qos=0, p_admit=0.5, kind="decrease"
)


class TestWhichPathEncodes:
    @pytest.mark.parametrize(
        "message, kind", [(REQUEST, "req"), (RESPONSE, "resp")], ids=["req", "resp"]
    )
    def test_wire_header(self, generic_calls, message, kind):
        assert encode_frame(message, 7) == reference_frame(message, kind, 7)
        assert generic_calls == []  # compiled

        for wrong in (
            replace(message, request_id=3.0),
            replace(message, request_id=True),
            replace(message, traceparent=None),
        ):
            del generic_calls[:]
            assert encode_frame(wrong, 7) == reference_frame(wrong, kind, 7)
            (header,) = generic_calls  # the whole header, generically
            assert header["kind"] == kind and header["body_len"] == 7

        del generic_calls[:]
        assert encode_frame(message, 7.0) == reference_frame(message, kind, 7.0)
        assert [h["body_len"] for h in generic_calls] == [7.0]

    @pytest.mark.parametrize(
        "kind, span, field, wrong",
        [
            ("rpc", RPC, "rnl_ns", 100.0),
            ("queue", QUEUE, "qos", Level.HIGH),
            ("admission", ADMISSION, "p_admit", float("inf")),
            ("admission", ADMISSION, "p_admit", 1),
        ],
    )
    def test_span_line(self, generic_calls, kind, span, field, wrong):
        def line(span, **extra):
            return written(lambda log: getattr(log, kind)(span, **extra))

        assert line(span) == reference_line(kind, span, {})
        assert generic_calls == []  # compiled

        bad = replace(span, **{field: wrong})
        assert line(bad) == reference_line(kind, bad, {})
        assert generic_calls == [{"type": kind, **asdict(bad)}]

    @pytest.mark.parametrize(
        "kind, span", [("rpc", RPC), ("queue", QUEUE)], ids=["rpc", "queue"]
    )
    def test_traced_extras(self, generic_calls, kind, span):
        def line(**extra):
            return written(lambda log: getattr(log, kind)(span, **extra))

        context = {"trace_id": "ab" * 16, "decide_ns": 7}
        assert line(**context) == reference_line(kind, span, context)
        assert generic_calls == [context]  # only the extras, spliced on

        del generic_calls[:]
        clash = {"trace_id": "ab" * 16, "qos_run": 9, "qos": 9}
        assert line(**clash) == reference_line(kind, span, clash)
        assert generic_calls == [{"type": kind, **asdict(span), **clash}]

"""``read_events`` held to the per-line loader it replaced.

:func:`read_lines` below is the loader every reader of a live log ran
before blocks of lines were decoded together: one ``json.loads`` per
non-blank line, a torn final line skipped with a warning, any other
malformed line an error.  It stays here as the reference.  Whatever the
file holds, both must return the same records (same types, same key
order, same values) and raise the same exception with the same message,
or warn with the same text.

The block size is read at call time, so the property patches it down to
a few lines and puts faults on both sides of many block boundaries; the
cases after it do the same at the real size.
"""

import json
import math
import warnings
from typing import Any, Dict, List, Optional, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.live import events
from repro.live.events import EventLog, read_events
from repro.obs.trace import AdmissionEvent, QueueSpan, RpcSpan


def read_lines(path, *, strict: bool = False) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    bad: Optional[Tuple[int, str]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except (json.JSONDecodeError, RecursionError) as exc:
                if strict:
                    raise
                if bad is not None:
                    raise ValueError(
                        f"{path}: malformed JSONL at line {bad[0]} is not a "
                        "truncated final line"
                    ) from exc
                bad = (lineno, stripped)
                continue
            if bad is not None:
                raise ValueError(
                    f"{path}: malformed JSONL at line {bad[0]} is not a "
                    "truncated final line"
                )
            records.append(record)
    if bad is not None:
        warnings.warn(
            f"{path}: skipped truncated final line {bad[0]} "
            f"({len(bad[1])} bytes) — process likely killed mid-write",
            RuntimeWarning,
            stacklevel=2,
        )
    return records


def outcome(read, path, strict: bool):
    """Records (as ``repr``: key order, int vs float and NaN all count),
    the exception raised, and the warnings issued."""
    records = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = read(path, strict=strict)
        except Exception as exc:
            cause = exc.__cause__
            error = (type(exc), str(exc), type(cause) if cause else None)
        else:
            records = (type(got), repr(got))
    return records, error, [(w.category, str(w.message)) for w in caught]


def assert_same(path, strict: bool) -> None:
    assert outcome(read_events, path, strict) == outcome(read_lines, path, strict)


# -- what a log can hold -------------------------------------------------

#: Raw characters ``str.splitlines`` would split on but a file does not.
ODD = "\u2028\u2029\x85\x1c\x1d\x1e\x0b\x0c"
text = st.text(alphabet=st.sampled_from("ab{},:[]\"\\ \t" + ODD + "\xe9\u2713"), max_size=6)
ints = st.integers(-(2**70), 2**70)
floats = st.floats(allow_nan=True, allow_infinity=True)
opt_int = st.none() | ints
json_value = st.recursive(
    st.none() | st.booleans() | ints | floats | text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(text, inner, max_size=3),
    max_leaves=6,
)
trace_extras = st.fixed_dictionaries(
    {},
    optional={
        "trace_id": text, "span_id": text, "parent_id": text,
        "decide_ns": ints, "attempts": ints, "rpc_id": ints,
    },
)

rpc_op = st.builds(
    lambda span, extra: lambda log: log.rpc(span, **extra),
    st.builds(
        RpcSpan, rpc_id=ints, src=ints, dst=ints, qos_requested=ints, qos_run=ints,
        downgraded=st.booleans(), issued_ns=ints, payload_bytes=ints,
        size_mtus=ints, completed_ns=opt_int, rnl_ns=opt_int,
        slo_met=st.none() | st.booleans(), terminated=st.booleans() | ints,
    ),
    trace_extras,
)
queue_op = st.builds(
    lambda span, extra: lambda log: log.queue(span, **extra),
    st.builds(
        QueueSpan, node=text, qos=ints, enqueued_ns=ints, dequeued_ns=ints,
        size_bytes=ints, kind=ints, rpc_id=ints,
    ),
    trace_extras,
)
admission_op = st.builds(
    lambda event: lambda log: log.admission(event),
    st.builds(
        AdmissionEvent, time_ns=ints, channel=text, qos=ints, p_admit=floats,
        kind=text, rpc_id=ints,
    ),
)
other_op = st.one_of(
    st.builds(
        lambda a, b, c, d, e, f: lambda log: log.retry(a, b, c, d, e, f),
        ints, ints, ints, text, ints, st.none() | text,
    ),
    st.builds(lambda e, p, t: lambda log: log.conn(e, p, t), text, text, ints),
    st.builds(
        lambda fields: lambda log: log.run_header(**fields),
        st.dictionaries(st.sampled_from(["role", "seed", "qos", "x"]), json_value),
    ),
    st.builds(
        lambda record: lambda log: log.alert(record),
        st.dictionaries(text, json_value, max_size=3),
    ),
    st.builds(
        lambda record: lambda log: log.write_record(record),
        st.dictionaries(text, json_value, max_size=3),
    ),
)
event_log_ops = st.lists(
    st.one_of(rpc_op, queue_op, admission_op, other_op), min_size=1, max_size=8
)

#: Blank once ``str.strip`` is done with them.
BLANKS = ["", " ", "\t \t", "\x0c", "\x1c", "\u2028", "\x85 ", "\xa0"]
#: Lines that are valid JSON but not one object, or not valid at all.
ODD_LINES = [
    "5", "[1]", '"s"', "null", "[]",  # valid, not an object
    '{"bro', "{]", "}", "{", '{"a":1}}', "[" * 100_000,  # malformed
    '{"a":1}{"b":2}', '{"a":1},{"b":2}', '{"a":1} ,\t{"b":2}',  # two objects
    '{"s":"},{"}', '{"s":"}",\t"t":"{"}', "\x1c{}\x1d",  # one object
    '{"s":"a\x1cb"}',  # a raw control character: malformed
    '{"a":1}\x1c{"b":2}', '{"a":1}\u2028{"b":2}',  # splitlines would split
    '{"a":' + "[" * 100_000 + "}",  # too deep, and an object's first line
    '{"n":' + "1" * 5000 + "}",  # past int's digit limit: a plain ValueError
]
#: One record over two lines whose join is valid JSON.
SPLIT_PAIRS = [('{"c":[{"x":1}', '{"y":2}]}'), ('{"c":[1', "2]}"), ('{"c":1', '"d":2}')]


@st.composite
def log_files(draw, tmp_dir):
    """A file: ``EventLog`` lines, blank lines, up to three faults
    anywhere, mixed line endings, and the last line maybe torn at any
    offset."""
    path = tmp_dir / "log.jsonl"
    with EventLog(path) as log:
        for op in draw(event_log_ops):
            op(log)
    lines = path.read_text(encoding="utf-8").split("\n")[:-1]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BLANKS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines) - 1))
        pick = draw(st.integers(0, 2))
        if pick == 0:
            lines.insert(at, draw(st.sampled_from(ODD_LINES)))
        elif pick == 1:
            lines[at:at] = draw(st.sampled_from(SPLIT_PAIRS))
        else:  # an EventLog record (or anything) split over two lines
            cut = draw(st.integers(0, len(lines[at])))
            lines[at : at + 1] = [lines[at][:cut], lines[at][cut:]]
    if draw(st.booleans()):
        lines[-1] = lines[-1][: draw(st.integers(0, len(lines[-1])))]
    endings = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    if draw(st.booleans()):
        endings[-1] = ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(line + end for line, end in zip(lines, endings)))
    return path


@pytest.fixture(scope="module")
def tmp_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("reader")


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data(), block=st.integers(1, 5), strict=st.booleans())
def test_block_reader_matches_per_line_reader(tmp_dir, data, block, strict):
    path = data.draw(log_files(tmp_dir))
    with mock.patch.object(events, "_BLOCK_LINES", block, create=True):
        assert_same(path, strict)


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "content",
    [
        "",
        "\n \n\r\n",
        '{"a":1}\r{"b":2}\r\n{"c":3}',
        '{"s":"\u2028\x85"}\n{"t":"\u2029"}\n',
        # Two objects on one line and one record over two lines: the
        # record count alone would accept this block.
        '{"a":1},{"b":2}\n{"c":[{"x":1}\n{"y":2}]}\n',
        '{"a":1}\n' + "[" * 100_000,
        '{"a":1}\n' + "[" * 100_000 + '\n{"b":2}\n',
        '{"a":1}\n{"a":' + "[" * 100_000 + '}\n{"b":2}\n',
        '{"c":[{"x":1}\n{"y":2}]}\n{"d":3}\n',
        '{"a":1}\x1c{"b":2}\n{"c":3}\n',
        # Three values on one line and two records over two lines each:
        # every line starts with { and ends with }, and the count fits.
        '{"a":1}, 5, {"b":2}\n{"c":[{"x":1}\n{"y":2}]}\n{"d":[{"x":1}\n{"y":2}]}\n',
    ],
    ids=[
        "empty", "blank", "cr-endings", "odd-chars", "count-alone", "deep-tail",
        "deep-mid", "deep-object", "split-record", "raw-separator", "not-all-dicts",
    ],
)
def test_cases(tmp_path, content, strict):
    path = tmp_path / "log.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(content)
    assert_same(path, strict)


FILLER = '{"type":"tick","i":0}'


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "fault",
    ['{"bro', "5", '{"a":1},{"b":2}', "[" * 100_000],
    ids=["malformed", "not-an-object", "two-objects", "deep"],
)
@pytest.mark.parametrize("shift", [-1, 0, 1, 2])
def test_fault_at_a_real_block_boundary(tmp_path, fault, shift, strict):
    """The fault on the last line of the first block, the first line of
    the second, and either side of those; then the same as a torn tail."""
    block = getattr(events, "_BLOCK_LINES", 4096)
    lines = [FILLER] * (block + shift - 1) + [fault] + [FILLER] * 3
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_same(path, strict)
    path.write_text("\n".join(lines[: block + shift]), encoding="utf-8")
    assert_same(path, strict)


def test_split_record_across_a_real_block_boundary(tmp_path):
    block = getattr(events, "_BLOCK_LINES", 4096)
    lines = [FILLER] * (block - 2) + ['{"a":1},{"b":2}', '{"c":[{"x":1}']
    lines += ['{"y":2}]}'] + [FILLER] * 3
    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert_same(path, False)


def test_records_in_a_block_share_their_key_strings(tmp_path):
    """A count, not a timing: records decoded in one block share one
    string per key name, so N records hold at most (key names) x
    (blocks) distinct key objects, not (key names) x N."""
    path = tmp_path / "log.jsonl"
    n = 10_000
    with EventLog(path) as log:
        for i in range(n):
            span = RpcSpan(
                rpc_id=i, src=0, dst=1, qos_requested=i % 3, qos_run=i % 3,
                downgraded=False, issued_ns=i, payload_bytes=1024, size_mtus=1,
                completed_ns=i + 5, rnl_ns=5, slo_met=True,
            )
            log.rpc(span, trace_id="ab" * 16, span_id="cd" * 8)
    records = read_events(path)
    assert type(records) is list and len(records) == n
    names = {k for r in records for k in r}
    key_objects = {id(k) for r in records for k in r}
    assert len(key_objects) <= len(names) * math.ceil(n / events._BLOCK_LINES)

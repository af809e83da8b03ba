"""Structured JSONL event logs for the live runtime.

The record vocabulary is the :mod:`repro.obs` span vocabulary: the
``"rpc"``, ``"admission"``, and ``"queue"`` lines carry exactly the
fields of :class:`repro.obs.trace.RpcSpan`,
:class:`repro.obs.trace.AdmissionEvent`, and
:class:`repro.obs.trace.QueueSpan` — the same shapes
:func:`repro.obs.export.write_jsonl` emits for a traced simulation —
so any tooling that consumes simulated span logs consumes live logs
unchanged.  Live-only record types are added on top:

* ``"retry"`` — one backoff-scheduled retry of a request;
* ``"conn"`` — connection lifecycle (connect / reset / close);
* ``"run"`` — run-level metadata (one header line per log);
* ``"alert"`` — an SLO burn-rate state transition
  (:meth:`repro.obs.slo.Alert.as_record`);
* ``"metrics"`` — one registry snapshot (metrics sidecar logs only).

The three span lines are dataclass-shaped and written on every call, so
each has an encoder compiled at import from its field table
(:func:`repro.live.wire.compile_flat_encoder`); the dict-shaped records
above go through one cached generic ``JSONEncoder``, which is also what
a span line falls back to when a value is not of its declared type.
The bytes are the same either way.

Timestamps are wall-clock nanoseconds from the run-origin-rebased
:class:`repro.live.clock.WallClock`, in the fields the span vocabulary
already defines (``issued_ns``, ``time_ns``, ...).

Flushing is policy-controlled: the default (``flush_lines=1``) writes
every line through immediately — a crashed process keeps everything it
logged, and a reader can tail the file mid-run.  High-rate logs (the
``/metrics``-era soak runs) can batch with ``flush_lines=N`` and/or a
wall-clock ``flush_interval_ns``; :meth:`close` always flushes, and a
killed process loses at most the unflushed tail — which
:func:`read_events` tolerates by skipping a torn final line.
"""

from __future__ import annotations

import json
import re
import warnings
from dataclasses import MISSING
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, List, Optional, TextIO, Tuple, Union

from repro.core.clocks import ClockSource
from repro.live.wire import compile_flat_encoder, field_table
from repro.obs.trace import AdmissionEvent, QueueSpan, RpcSpan, span_record

#: One compact encoder for every dict-shaped record (``json.dumps``
#: builds a fresh ``JSONEncoder`` per call whenever separators are not
#: the default).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode


#: ``(kind, encode, keys)``: one span class's record type, compiled line
#: encoder, and the keys its line already holds — a traced extra under
#: one of those replaces that value where it stands, so it cannot be
#: spliced on at the end.
_SpanLine = Tuple[str, Callable[[Any, str], Optional[str]], FrozenSet[str]]


def _span_line(kind: str, cls: type) -> _SpanLine:
    """Compile ``{"type":kind``, then every field of the span — a span
    default is a value like any other, never omitted — then whatever the
    caller closes the object with (see
    :func:`repro.live.wire.compile_flat_encoder`)."""
    table = tuple((name, hint, MISSING) for name, hint, _ in field_table(cls))
    encode = compile_flat_encoder(table, '{"type":"%s",' % kind, "%s\n")
    return kind, encode, frozenset(["type", *(name for name, _, _ in table)])


_RPC_LINE = _span_line("rpc", RpcSpan)
_QUEUE_LINE = _span_line("queue", QueueSpan)
_ADMISSION_LINE = _span_line("admission", AdmissionEvent)

class EventLog:
    """Append-only JSONL writer; one per live process.

    ``flush_lines`` flushes after every Nth written line (1 = write
    through, the default).  ``flush_interval_ns`` additionally flushes
    when that much time passed since the last flush — it needs a
    ``clock`` and exists for long soaks where per-line flushing is the
    dominant syscall cost but a bounded-staleness tail still matters.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        flush_lines: int = 1,
        flush_interval_ns: Optional[int] = None,
        clock: Optional[ClockSource] = None,
    ) -> None:
        if flush_lines < 1:
            raise ValueError("flush_lines must be >= 1")
        if flush_interval_ns is not None:
            if flush_interval_ns <= 0:
                raise ValueError("flush interval must be positive")
            if clock is None:
                raise ValueError("an interval flush policy needs a clock")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: Optional[TextIO] = open(self.path, "w", encoding="utf-8")
        self._flush_lines = flush_lines
        self._flush_interval_ns = flush_interval_ns
        self._clock = clock
        self._unflushed = 0
        self._last_flush_ns = clock.now_ns() if clock is not None else 0

    def _write(self, record: Dict[str, Any]) -> None:
        fh = self._fh
        if fh is not None:  # closed: late stragglers (drained tasks) drop silently
            self._write_line(fh, _encode_json(record) + "\n")

    def _write_span(self, shape: _SpanLine, span: Any, extra: Dict[str, Any]) -> None:
        fh = self._fh
        if fh is None:
            return
        kind, encode, keys = shape
        if not extra:
            line = encode(span, "}")
        elif keys.isdisjoint(extra):
            # Trace context rides behind the compiled fields: the extras
            # object minus its opening brace closes the line.
            line = encode(span, "," + _encode_json(extra)[1:])
        else:
            line = None
        if line is None:
            # A value not of its declared type, or an extra that names a
            # span field: the generic encoder writes the merged dict.
            record = {"type": kind, **span_record(span), **extra}
            line = _encode_json(record) + "\n"
        self._write_line(fh, line)

    def _write_line(self, fh: TextIO, line: str) -> None:
        fh.write(line)
        self._unflushed += 1
        if self._unflushed >= self._flush_lines:
            self._flush()
            return
        if self._flush_interval_ns is not None and self._clock is not None:
            now_ns = self._clock.now_ns()
            if now_ns - self._last_flush_ns >= self._flush_interval_ns:
                self._flush(now_ns)

    def _flush(self, now_ns: Optional[int] = None) -> None:
        if self._fh is not None:
            self._fh.flush()
        self._unflushed = 0
        if self._clock is not None:
            self._last_flush_ns = (
                now_ns if now_ns is not None else self._clock.now_ns()
            )

    def flush(self) -> None:
        """Force pending lines to the OS now (policy notwithstanding)."""
        self._flush()

    def write_record(self, record: Dict[str, Any]) -> None:
        """Append one pre-shaped record (telemetry snapshots, custom
        tooling).  ``record["type"]`` is the consumer's dispatch key."""
        self._write(record)

    def run_header(self, **fields: Any) -> None:
        self._write({"type": "run", **fields})

    def rpc(self, span: RpcSpan, **extra: Any) -> None:
        """``extra`` carries trace context (``trace_id``, ``span_id``,
        ``decide_ns``) only when the process runs with tracing on, so
        untraced records keep the exact span-vocabulary field set."""
        self._write_span(_RPC_LINE, span, extra)

    def admission(self, event: AdmissionEvent) -> None:
        self._write_span(_ADMISSION_LINE, event, {})

    def queue(self, span: QueueSpan, **extra: Any) -> None:
        self._write_span(_QUEUE_LINE, span, extra)

    def retry(
        self,
        request_id: int,
        attempt: int,
        delay_ns: int,
        reason: str,
        time_ns: int,
        trace_id: Optional[str] = None,
    ) -> None:
        record: Dict[str, Any] = {
            "type": "retry",
            "request_id": request_id,
            "attempt": attempt,
            "delay_ns": delay_ns,
            "reason": reason,
            "time_ns": time_ns,
        }
        if trace_id is not None:
            record["trace_id"] = trace_id
        self._write(record)

    def conn(self, event: str, peer: str, time_ns: int) -> None:
        self._write({"type": "conn", "event": event, "peer": peer, "time_ns": time_ns})

    def alert(self, record: Dict[str, Any]) -> None:
        """Append one SLO burn-rate alert record (see
        :meth:`repro.obs.slo.Alert.as_record`)."""
        self._write({**record, "type": "alert"})

    def close(self) -> None:
        """Idempotent; flushes anything the batch policy was holding."""
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


#: Lines per ``json.loads`` call when reading a log.  The decoder shares
#: one string per key name across a call, so a block's records share
#: their keys (~570 B per ledger record instead of ~1.2 KiB).
_BLOCK_LINES = 4096

#: ``}``, ``,``, ``{`` with only blanks between: a line that may hold two
#: objects, which a block decode would count as two records.
_TWO_OBJECTS = re.compile(r"\}[ \t]*,[ \t]*\{")


def _read_blocks(path: Union[str, Path]) -> Optional[List[Dict[str, Any]]]:
    """Decode the log one block of lines per ``json.loads``, or return
    ``None`` at the first block whose decode might differ from decoding
    its lines one at a time.

    A block is accepted only if every non-blank line, stripped, starts
    with ``{`` and ends with ``}``, no line holds ``}``, ``,``, ``{``
    with only blanks between (in a string value or not), and the decode
    gives exactly one ``dict`` per line.  Then two objects can only be
    separated at a comma that joins two lines, so the i-th object is the
    i-th line's own decode.
    """
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        # Iterating the file splits lines at \n, \r and \r\n only (not at
        # U+2028 and the like inside string values, as splitlines would).
        while lines := list(islice(fh, _BLOCK_LINES)):
            block = [s for s in map(str.strip, lines) if s]
            if not all(s[0] == "{" and s[-1] == "}" for s in block):
                return None
            if _TWO_OBJECTS.search("\n".join(block)):
                return None
            try:
                decoded = json.loads("[" + ",".join(block) + "]")
            except Exception:  # whatever it is, the per-line loop decides
                return None
            if len(decoded) != len(block) or not all(
                type(r) is dict for r in decoded
            ):
                return None
            records += decoded
    return records


def read_events(
    path: Union[str, Path], *, strict: bool = False
) -> List[Dict[str, Any]]:
    """Load one JSONL event log (skipping blank lines).

    A process killed mid-write (SIGKILL, OOM, power loss) leaves a torn
    final line; by default that line — and only a *final* malformed
    line — is skipped with a warning so post-mortem analysis of crashed
    runs works.  A malformed line with valid records *after* it means
    real corruption, not a torn tail, and always raises.  Pass
    ``strict=True`` to raise on any malformed line.

    Lines are decoded a block at a time (:func:`_read_blocks`); a log
    with any block that fails is read again one line at a time, and that
    loop alone decides what is a torn tail and what is corruption.
    """
    records = _read_blocks(path)
    if records is not None:
        return records
    records = []
    bad: Optional[Tuple[int, str]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except (json.JSONDecodeError, RecursionError) as exc:
                # Nesting past the decoder's depth limit is malformed
                # too (a torn ``[[[...`` tail, or corruption mid-file).
                if strict:
                    raise
                if bad is not None:
                    # Two malformed lines, or one followed by valid
                    # records: not a torn tail.
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


__all__ = [
    "EventLog",
    "read_events",
]

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
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Tuple, Union

from repro.core.clocks import ClockSource
from repro.obs.trace import AdmissionEvent, QueueSpan, RpcSpan, span_record

#: One compact encoder for every line (``json.dumps`` builds a fresh
#: ``JSONEncoder`` per call whenever separators are not the default).
_encode_json = json.JSONEncoder(separators=(",", ":")).encode

#: One p_admit time series: (time_ns, value) points in time order —
#: the same shape :mod:`repro.obs.series` produces for traced runs.
Track = List[Tuple[int, float]]


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
        if self._fh is None:
            return  # closed: late stragglers (drained tasks) drop silently
        self._fh.write(_encode_json(record) + "\n")
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
        self._write({"type": "rpc", **span_record(span), **extra})

    def admission(self, event: AdmissionEvent) -> None:
        self._write({"type": "admission", **span_record(event)})

    def queue(self, span: QueueSpan, **extra: Any) -> None:
        self._write({"type": "queue", **span_record(span), **extra})

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
    """
    records: List[Dict[str, Any]] = []
    bad: Optional[Tuple[int, str]] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = json.loads(stripped)
            except json.JSONDecodeError as exc:
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


def p_admit_tracks(records: List[Dict[str, Any]]) -> Dict[str, Track]:
    """Raw admit-probability adjustments per ``src->dst/qosN`` channel.

    The live twin of :func:`repro.obs.series.p_admit_events`: one point
    per AIMD adjustment, keyed by the same channel convention the
    steady-state detector's per-QoS rollup parses.
    """
    tracks: Dict[str, Track] = {}
    for record in records:
        if record.get("type") != "admission":
            continue
        key = f"{record['channel']}/qos{record['qos']}"
        tracks.setdefault(key, []).append(
            (int(record["time_ns"]), float(record["p_admit"]))
        )
    for track in tracks.values():
        track.sort(key=lambda point: point[0])
    return tracks


def merge_tracks(per_log: List[Dict[str, Track]]) -> Dict[str, Track]:
    """Union of per-process track maps (channel keys never collide:
    each client logs only its own ``client->server`` channels)."""
    merged: Dict[str, Track] = {}
    for tracks in per_log:
        for key, track in tracks.items():
            merged.setdefault(key, []).extend(track)
    for track in merged.values():
        track.sort(key=lambda point: point[0])
    return merged


__all__ = [
    "EventLog",
    "Track",
    "merge_tracks",
    "p_admit_tracks",
    "read_events",
]

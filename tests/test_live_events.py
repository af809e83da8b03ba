"""Live JSONL event logs and their compatibility with the obs vocabulary.

The live runtime's selling point for tooling is that its ``"rpc"``,
``"admission"``, and ``"queue"`` lines are byte-layout-compatible with
what :func:`repro.obs.export.write_jsonl` emits for a traced simulation
— same type tags, same field sets — so downstream consumers need no
live/sim branch.  These tests pin that shape, the live-only record
types, the idempotent-close contract, and the track-extraction helpers
the convergence gate is built on.
"""

import json
import os
import signal
import subprocess
import sys
from dataclasses import asdict, fields

import pytest

from repro.live.convergence import tracks_from_logs
from repro.live.events import EventLog, read_events
from repro.obs.trace import AdmissionEvent, QueueSpan, RpcSpan

RPC = RpcSpan(
    rpc_id=1,
    src=0,
    dst=0,
    qos_requested=0,
    qos_run=0,
    downgraded=False,
    issued_ns=100,
    payload_bytes=4096,
    size_mtus=1,
    completed_ns=200,
    rnl_ns=100,
    slo_met=True,
    terminated=False,
)

ADMISSION = AdmissionEvent(
    time_ns=150, channel="c0->srv", qos=0, p_admit=0.5, kind="decrease"
)

QUEUE = QueueSpan(
    node="srv", qos=0, enqueued_ns=100, dequeued_ns=150, size_bytes=4096, kind=0
)


def write_sample_log(path):
    with EventLog(path) as log:
        log.run_header(role="client", seed=7)
        log.rpc(RPC)
        log.admission(ADMISSION)
        log.queue(QUEUE)
        log.retry(request_id=1, attempt=1, delay_ns=5, reason="timeout", time_ns=160)
        log.conn("connect", "127.0.0.1:9", 90)
    return path


class TestEventLog:
    def test_records_round_trip_in_order(self, tmp_path):
        records = read_events(write_sample_log(tmp_path / "log.jsonl"))
        assert [r["type"] for r in records] == [
            "run", "rpc", "admission", "queue", "retry", "conn",
        ]

    def test_span_records_match_obs_vocabulary(self, tmp_path):
        """Each span line is exactly {type} + the obs dataclass fields —
        the shape write_jsonl gives simulated runs."""
        records = read_events(write_sample_log(tmp_path / "log.jsonl"))
        by_type = {r["type"]: r for r in records}
        for record_kind, span in (
            ("rpc", RPC), ("admission", ADMISSION), ("queue", QUEUE),
        ):
            record = dict(by_type[record_kind])
            assert record.pop("type") == record_kind
            assert record == asdict(span)
            assert set(record) == {f.name for f in fields(span)}

    def test_span_lines_are_byte_stable(self, tmp_path):
        """Literal JSONL bytes: key order (type, span fields in declaration
        order, then trace extras) and compact separators are the format."""
        path = tmp_path / "log.jsonl"
        with EventLog(path) as log:
            log.rpc(RPC)
            log.rpc(RPC, trace_id="ab" * 16, span_id="cd" * 8, decide_ns=7, attempts=1)
            log.queue(QUEUE)
            log.queue(QUEUE, trace_id="ab" * 16, parent_id="cd" * 8)
            log.admission(ADMISSION)
            log.admission(
                AdmissionEvent(
                    time_ns=150, channel="c0->srv", qos=0, p_admit=1e-05,
                    kind="increase", rpc_id=9,
                )
            )
        rpc = (
            '{"type":"rpc","rpc_id":1,"src":0,"dst":0,"qos_requested":0,"qos_run":0,'
            '"downgraded":false,"issued_ns":100,"payload_bytes":4096,"size_mtus":1,'
            '"completed_ns":200,"rnl_ns":100,"slo_met":true,"terminated":false'
        )
        queue = (
            '{"type":"queue","node":"srv","qos":0,"enqueued_ns":100,'
            '"dequeued_ns":150,"size_bytes":4096,"kind":0,"rpc_id":0'
        )
        trace = '"trace_id":"abababababababababababababababab"'
        assert path.read_text(encoding="utf-8").splitlines() == [
            rpc + "}",
            rpc + "," + trace + ',"span_id":"cdcdcdcdcdcdcdcd","decide_ns":7,"attempts":1}',
            queue + "}",
            queue + "," + trace + ',"parent_id":"cdcdcdcdcdcdcdcd"}',
            '{"type":"admission","time_ns":150,"channel":"c0->srv","qos":0,'
            '"p_admit":0.5,"kind":"decrease","rpc_id":0}',
            '{"type":"admission","time_ns":150,"channel":"c0->srv","qos":0,'
            '"p_admit":1e-05,"kind":"increase","rpc_id":9}',
        ]

    def test_close_is_idempotent_and_drops_stragglers(self, tmp_path):
        log = EventLog(tmp_path / "log.jsonl")
        log.rpc(RPC)
        log.close()
        log.close()
        log.rpc(RPC)  # late straggler after close: dropped, not raised
        assert len(read_events(tmp_path / "log.jsonl")) == 1

    def test_blank_lines_skipped_on_read(self, tmp_path):
        path = tmp_path / "log.jsonl"
        write_sample_log(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n   \n")
        assert len(read_events(path)) == 6


class TestTornTail:
    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        """A process killed mid-write leaves a torn last line; reading
        the log must salvage everything before it."""
        path = write_sample_log(tmp_path / "log.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type":"rpc","rpc_id":99,"iss')  # no newline either
        with pytest.warns(RuntimeWarning, match="truncated final line"):
            records = read_events(path)
        assert len(records) == 6
        assert all(r.get("rpc_id") != 99 for r in records)

    def test_strict_mode_raises_on_torn_tail(self, tmp_path):
        path = write_sample_log(tmp_path / "log.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"broken')
        with pytest.raises(json.JSONDecodeError):
            read_events(path, strict=True)

    def test_mid_file_corruption_always_raises(self, tmp_path):
        """A malformed line with valid records after it is corruption,
        not a torn tail — salvaging would silently drop data."""
        path = tmp_path / "log.jsonl"
        path.write_text(
            '{"type":"run","seed":1}\n{"bro\n{"type":"rpc","rpc_id":1}\n'
        )
        with pytest.raises(ValueError, match="not a truncated final line"):
            read_events(path)

    def test_two_malformed_lines_raise(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"type":"run"}\n{"bro\n{"ken\n')
        with pytest.raises(ValueError, match="not a truncated final line"):
            read_events(path)

    def test_deeply_nested_final_line_is_a_torn_tail(self, tmp_path):
        """Nesting past the decoder's depth limit is a malformed line like
        any other: salvaged as a torn tail, not a ``RecursionError``."""
        path = write_sample_log(tmp_path / "log.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("[" * 100_000)
        with pytest.warns(RuntimeWarning, match="truncated final line 7"):
            records = read_events(path, strict=False)
        assert len(records) == 6
        with pytest.raises(RecursionError):
            read_events(path, strict=True)

    def test_deeply_nested_mid_file_line_is_corruption(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"type":"run"}\n' + "[" * 100_000 + '\n{"type":"rpc"}\n')
        with pytest.raises(ValueError, match="line 2 is not a truncated final line"):
            read_events(path, strict=False)


class SteppingClock:
    def __init__(self, step_ns=1):
        self._now = 0
        self._step = step_ns

    def now_ns(self):
        self._now += self._step
        return self._now


class TestFlushPolicy:
    def test_default_writes_through_every_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog(path)
        log.rpc(RPC)
        # Visible to a concurrent reader before close: flushed per line.
        assert len(read_events(path)) == 1
        log.close()

    def test_line_batching_defers_then_close_flushes(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog(path, flush_lines=10)
        for _ in range(9):
            log.rpc(RPC)
        assert read_events(path) == []  # still buffered
        log.rpc(RPC)  # tenth line trips the policy
        assert len(read_events(path)) == 10
        log.rpc(RPC)
        log.close()  # close flushes the partial batch
        assert len(read_events(path)) == 11

    def test_explicit_flush_overrides_policy(self, tmp_path):
        path = tmp_path / "log.jsonl"
        with EventLog(path, flush_lines=100) as log:
            log.rpc(RPC)
            log.flush()
            assert len(read_events(path)) == 1

    def test_interval_policy_flushes_on_clock(self, tmp_path):
        path = tmp_path / "log.jsonl"
        clock = SteppingClock(step_ns=400)
        log = EventLog(
            path, flush_lines=1000, flush_interval_ns=1000, clock=clock
        )
        log.rpc(RPC)  # 400 ns since last flush: held
        assert read_events(path) == []
        log.rpc(RPC)
        log.rpc(RPC)  # crosses the 1000 ns interval: flushed
        assert len(read_events(path)) == 3
        log.close()

    def test_policy_validation(self, tmp_path):
        with pytest.raises(ValueError):
            EventLog(tmp_path / "a.jsonl", flush_lines=0)
        with pytest.raises(ValueError):
            EventLog(tmp_path / "b.jsonl", flush_interval_ns=5)  # no clock
        with pytest.raises(ValueError):
            EventLog(
                tmp_path / "c.jsonl",
                flush_interval_ns=0,
                clock=SteppingClock(),
            )


_SIGTERM_CHILD = """\
import signal, sys, time
sys.path.insert(0, {src!r})
from repro.live.events import EventLog

log = EventLog({path!r}, flush_lines=5)
signal.signal(signal.SIGTERM, lambda *a: sys.exit(0))
for i in range(12):
    log.write_record({{"type": "tick", "i": i}})
print("ready", flush=True)
time.sleep(30)
"""


def test_sigtermed_child_log_still_parses(tmp_path):
    """The batch policy loses at most the unflushed tail on SIGTERM, and
    what hit the disk parses cleanly."""
    path = tmp_path / "child.jsonl"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    child = subprocess.Popen(
        [sys.executable, "-c",
         _SIGTERM_CHILD.format(src=os.path.abspath(src), path=str(path))],
        stdout=subprocess.PIPE,
    )
    try:
        assert child.stdout.readline().strip() == b"ready"
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=10) == 0
    finally:
        if child.poll() is None:
            child.kill()
    records = read_events(path)
    # Two full batches of five definitely flushed; the last two lines
    # were policy-buffered and may or may not have survived exit.
    assert len(records) >= 10
    assert [r["i"] for r in records] == list(range(len(records)))


class TestTrackExtraction:
    def test_p_admit_tracks_keyed_by_channel_and_qos(self, tmp_path):
        tracks = tracks_from_logs([write_sample_log(tmp_path / "log.jsonl")])
        assert tracks == {"c0->srv/qos0": [(150, 0.5)]}

    def test_points_sorted_by_time(self, tmp_path):
        path = tmp_path / "log.jsonl"
        records = [
            {"type": "admission", "channel": "c0->srv", "qos": 0,
             "p_admit": 0.4, "time_ns": 300, "kind": "decrease"},
            {"type": "admission", "channel": "c0->srv", "qos": 0,
             "p_admit": 0.9, "time_ns": 100, "kind": "decrease"},
            {"type": "rpc", "rpc_id": 1},  # non-admission lines ignored
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        tracks = tracks_from_logs([path])
        assert tracks["c0->srv/qos0"] == [(100, 0.9), (300, 0.4)]

    def test_merge_tracks_unions_and_sorts(self, tmp_path):
        logs = [
            [("c0->srv", 200, 0.8), ("c1->srv", 50, 0.9)],
            [("c0->srv", 100, 1.0)],
        ]
        paths = []
        for i, adjustments in enumerate(logs):
            paths.append(tmp_path / f"c{i}.jsonl")
            with EventLog(paths[-1]) as log:
                for channel, time_ns, p_admit in adjustments:
                    log.admission(
                        AdmissionEvent(
                            time_ns=time_ns, channel=channel, qos=0,
                            p_admit=p_admit, kind="decrease",
                        )
                    )
        merged = tracks_from_logs(paths)
        assert merged["c0->srv/qos0"] == [(100, 1.0), (200, 0.8)]
        assert merged["c1->srv/qos0"] == [(50, 0.9)]

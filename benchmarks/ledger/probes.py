"""Probe timing, and the probes two workload families share.

A probe runs one operation ``n`` times in a tight loop and keeps the
fastest of a few repeats — the same "interference only adds time"
argument as the slice estimator, at operation scale.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict

from repro.core.admission import AdmissionParams
from repro.core.clocks import FixedClock
from repro.core.interface import AdmissionEngine
from repro.core.qos import WEIGHTS_2_QOS, WEIGHTS_3_QOS, Priority, QoSConfig
from repro.core.slo import SLO, SLOMap
from repro.live.events import EventLog
from repro.live.wire import Request, Response, decode_header, encode_frame
from repro.net.packet import MTU_BYTES, Packet
from repro.net.queues import (
    DwrrScheduler,
    FifoScheduler,
    Scheduler,
    StrictPriorityScheduler,
    WfqScheduler,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import RpcSpan
from repro.rpc.message import Rpc
from repro.rpc.stack import MetricsCollector
from repro.sim.engine import Simulator

REPEATS = 5


def ns_per_op(loop: Callable[[int], None], n: int) -> float:
    """Fastest observed cost of one operation, in nanoseconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        loop(n)
        best = min(best, time.perf_counter() - start)
    return best / n * 1e9


def core_probes() -> Dict[str, float]:
    """``AdmissionEngine.decide`` / ``.complete`` on one warm channel,
    SLO met throughout so ``p_admit`` stays 1 (the live workload's path)."""
    slo_map = SLOMap({0: SLO(25_000_000, 90.0)}, QoSConfig(weights=WEIGHTS_2_QOS))
    clock = FixedClock()
    engine = AdmissionEngine(slo_map, AdmissionParams(), seed=1, clock=clock)

    def decide(n: int) -> None:
        call = engine.decide
        for _ in range(n):
            call("srv", 0, 1024)

    def complete(n: int) -> None:
        call = engine.complete
        for _ in range(n):
            clock.advance(1000)
            call("srv", 1_000_000, 1, 0)

    return {
        "core.decide_ns": ns_per_op(decide, 50_000),
        "core.complete_ns": ns_per_op(complete, 50_000),
    }


def obs_probes() -> Dict[str, float]:
    """One pre-resolved counter increment and histogram observation."""
    registry = MetricsRegistry()
    counter = registry.counter("probe", qos=0)
    histogram = registry.histogram("probe_ns", qos=0)

    def inc(n: int) -> None:
        call = counter.inc
        for _ in range(n):
            call()

    def observe(n: int) -> None:
        call = histogram.observe
        for i in range(n):
            call(1000.0 + i)

    return {
        "obs.counter_inc_ns": ns_per_op(inc, 100_000),
        "obs.histogram_observe_ns": ns_per_op(observe, 100_000),
    }


def kernel_probe() -> Dict[str, float]:
    """``Simulator.schedule`` + fire of a no-op, 100k events per repeat."""

    def loop(n: int) -> None:
        sim = Simulator()
        schedule = sim.schedule

        def noop() -> None:
            pass

        for delay in range(n):
            schedule(delay, noop)
        sim.run()

    return {"sim.schedule_fire_ns": ns_per_op(loop, 100_000)}


def _pair_ns(scheduler: Scheduler) -> float:
    """Dequeue + re-enqueue at a standing depth of 256 packets."""
    for index in range(256):
        scheduler.enqueue(Packet(0, 1, MTU_BYTES, qos=index % 3))
    enqueue, dequeue = scheduler.enqueue, scheduler.dequeue

    def loop(n: int) -> None:
        for _ in range(n):
            enqueue(dequeue())  # type: ignore[arg-type]  # never empty here

    return ns_per_op(loop, 50_000)


def scheduler_probes() -> Dict[str, float]:
    """Bare forwarding cost of each scheduler class (the siblings)."""
    buffer_bytes = 4 * 1024 * 1024
    return {
        "net.wfq_pair_ns": _pair_ns(WfqScheduler(WEIGHTS_3_QOS, buffer_bytes)),
        "net.dwrr_pair_ns": _pair_ns(DwrrScheduler(WEIGHTS_3_QOS, buffer_bytes)),
        "net.spq_pair_ns": _pair_ns(StrictPriorityScheduler(3, buffer_bytes)),
        "net.fifo_pair_ns": _pair_ns(FifoScheduler(buffer_bytes, num_classes=3)),
    }


def collector_probe() -> Dict[str, float]:
    """``MetricsCollector.record_issue`` + ``record_completion`` per RPC."""
    count = 20_000
    rpcs = [
        Rpc(1, 0, Priority.PC, 1024, issued_ns=i, qos_requested=0, qos_run=0,
            completed_ns=i + 1000, rnl_ns=1000)
        for i in range(count)
    ]

    def loop(n: int) -> None:
        metrics = MetricsCollector()
        issue, complete = metrics.record_issue, metrics.record_completion
        for rpc in rpcs:
            issue(rpc)
            complete(rpc)

    return {"rpc.record_ns": ns_per_op(loop, count)}


def wire_probes() -> Dict[str, float]:
    """Header encode and decode of one request + one response — the
    frames one 1 KiB call puts on the wire (bodies are zero padding)."""
    request = Request(
        request_id=123_456, client="c0", qos_requested=0, qos_run=0,
        downgraded=False, payload_bytes=1024, size_mtus=1, attempt=1,
        issued_ns=12_345_678_901,
    )
    response = Response(request_id=123_456, status="ok", queue_ns=12_345, service_ns=1000)
    frames = (encode_frame(request, body_len=1024), encode_frame(response))
    headers = [json.loads(frame[4:]) for frame in frames]
    for header in headers:
        header.pop("kind")

    def encode(n: int) -> None:
        for _ in range(n):
            encode_frame(request, body_len=1024)
            encode_frame(response)

    def decode(n: int) -> None:
        for _ in range(n):
            decode_header("req", headers[0], Request)
            decode_header("resp", headers[1], Response)

    return {
        "live.wire.encode_ns": ns_per_op(encode, 5_000),
        "live.wire.decode_ns": ns_per_op(decode, 5_000),
        "live.wire.header_bytes_per_call": float(sum(len(f) for f in frames)),
    }


def event_log_probe(scratch: Path) -> Dict[str, float]:
    """``EventLog.rpc`` of one completed span, written through."""
    span = RpcSpan(
        rpc_id=123_456, src=0, dst=0, qos_requested=0, qos_run=0, downgraded=False,
        issued_ns=12_345_678_901, payload_bytes=1024, size_mtus=1,
        completed_ns=12_346_978_901, rnl_ns=1_300_000, slo_met=True,
    )
    path = scratch / "probe-events.jsonl"
    with EventLog(path) as log:

        def record(n: int) -> None:
            for _ in range(n):
                log.rpc(span)

        cost = ns_per_op(record, 5_000)
    path.unlink()
    return {"live.events.record_ns": cost}

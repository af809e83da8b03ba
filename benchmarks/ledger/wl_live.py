"""The live-capacity workload: closed loop over loopback TCP.

One process, one event loop: a ``LiveServer`` and one
``AdmissionClient`` over **loopback TCP** (not a real link), both
writing real ``EventLog`` JSONL.  Eight callers each await
``client.call(i & 1, payload_bytes=1024)``; a slice is 480 calls, and a
unit ("session") is a fresh server + client + logs and 20 slices, after
which both logs are parsed and checked and deleted — fixed-size
sessions keep memory and verification cost independent of how many
calls fit in a run.  Service is 1 us per MTU and the SLO 25 ms, so the
server is never the bottleneck and ``p_admit`` stays 1: what is measured
is the Python on both sides of the socket.  (A host stall longer than
the SLO makes AIMD throttle for a few seconds; that relabels some calls
to the scavenger class, costs the same per call, and is not a failure.)

Live slices are statistically, not bitwise, identical; they share one
index and the quiet time is the minimum over all slices of the run.
"""

from __future__ import annotations

import asyncio
import time
from array import array
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from benchmarks.ledger.spans import SpanRecorder, maybe_span
from benchmarks.ledger.workloads import Unit
from repro.core.qos import WEIGHTS_2_QOS, QoSConfig
from repro.core.slo import SLO, SLOMap
from repro.live import AdmissionClient, LiveServer, LiveTelemetry, RetryPolicy, WallClock
from repro.live.events import EventLog, read_events
from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from benchmarks.ledger.layers import LayerProfile

MS = 1_000_000
CALLERS = 8
CALLS_PER_CALLER = 60
SLICE_CALLS = CALLERS * CALLS_PER_CALLER
SESSION_SLICES = 20
PAYLOAD_BYTES = 1024
#: One attempt with a deadline far beyond any loopback latency: the
#: workload measures capacity, not the retry machinery.
_PATIENT = RetryPolicy(
    max_attempts=1, deadline_ns=5_000 * MS, attempt_timeout_ns=5_000 * MS
)


#: Event-log record types that are not caused by a call.
_BACKGROUND = ("run", "conn", "admission", "alert", "metrics")


def _slo_map() -> SLOMap:
    return SLOMap({0: SLO(25 * MS, 90.0)}, QoSConfig(weights=WEIGHTS_2_QOS))


class _Session:
    """A started server and a dialled client, with their logs."""

    def __init__(self, seed: int, log_dir: Path, observed: bool) -> None:
        self.clock = WallClock()
        self.server_path = log_dir / "server.jsonl"
        self.client_path = log_dir / "client.jsonl"
        self.server_log = EventLog(self.server_path)
        self.client_log = EventLog(self.client_path)
        self.registry = MetricsRegistry() if observed else None
        self.server = LiveServer(
            self.clock,
            self.server_log,
            service_ns_per_mtu=1000,
            queue_limit=96,
            registry=self.registry,
        )
        self.seed = seed
        self.client: Optional[AdmissionClient] = None
        self.sampler: Optional[LiveTelemetry] = None
        self.log_dir = log_dir

    async def start(self, spans: Optional[SpanRecorder]) -> AdmissionClient:
        with maybe_span(spans, "LiveServer.start"):
            port = await self.server.start()
        client = self.client = AdmissionClient(
            "c0",
            "127.0.0.1",
            port,
            _slo_map(),
            seed=self.seed,
            clock=self.clock,
            log=self.client_log,
            retry=_PATIENT,
            registry=self.registry,
        )
        if self.registry is not None:
            self.sampler = LiveTelemetry(
                self.registry,
                self.clock,
                EventLog(self.log_dir / "metrics.jsonl"),
                interval_ns=250 * MS,
            )
            await self.sampler.start()
        with maybe_span(spans, "dial_first_call"):
            first = await client.call(0, payload_bytes=PAYLOAD_BYTES)
        if first.status != "ok":
            raise RuntimeError(f"first call came back {first.status!r}")
        return client

    async def close(self) -> None:
        if self.client is not None:
            await self.client.aclose()
        await self.server.stop()
        if self.sampler is not None:
            await self.sampler.stop()
        self.server_log.close()
        self.client_log.close()


async def _closed_loop(
    client: AdmissionClient,
    callers: int,
    calls_each: int,
    payload_bytes: int,
    spans: Optional[SpanRecorder] = None,
) -> int:
    """``callers`` coroutines, each awaiting its calls one at a time;
    returns how many came back ``ok``."""

    async def caller() -> int:
        ok = 0
        for i in range(calls_each):
            if spans is None:
                result = await client.call(i & 1, payload_bytes=payload_bytes)
            else:
                start = time.perf_counter()
                result = await client.call(i & 1, payload_bytes=payload_bytes)
                spans.add("AdmissionClient.call", start, time.perf_counter())
            ok += result.status == "ok"
        return ok

    return sum(await asyncio.gather(*(caller() for _ in range(callers))))


class LiveWorkload:
    name = "live_closed_8x1k"
    aligned = False
    traced_units = 1
    sanitize_child = False
    #: A session with registries on both ends and the 4 Hz sampler on.
    observed_metric = "live.telemetry.slowdown"
    work = float(SLICE_CALLS)

    def first_op(self, seed: int, scratch: str) -> None:
        async def body() -> None:
            session = _Session(seed, Path(scratch) / "setup", observed=False)
            try:
                await session.start(None)
            finally:
                await session.close()

        asyncio.run(body())

    def run_unit(
        self,
        seed: int,
        scratch: Path,
        spans: Optional[SpanRecorder] = None,
        profile: Optional["LayerProfile"] = None,
        unit_id: int = 0,
        observed: bool = False,
    ) -> Unit:
        import shutil

        log_dir = scratch / f"live-{seed}-{unit_id}"
        slices: List[float] = []
        ok_calls = 0

        async def body() -> _Session:
            nonlocal ok_calls
            session = _Session(seed, log_dir, observed)
            try:
                client = await session.start(spans)
                if profile is not None:
                    profile.enable()
                try:
                    for _ in range(SESSION_SLICES):
                        start = time.perf_counter()
                        with maybe_span(spans, "slice"):
                            ok_calls += await _closed_loop(
                                client, CALLERS, CALLS_PER_CALLER, PAYLOAD_BYTES, spans
                            )
                        slices.append(time.perf_counter() - start)
                finally:
                    if profile is not None:
                        profile.disable()
            finally:
                await session.close()
            return session

        with maybe_span(spans, "unit", unit_id):
            session = asyncio.run(body())
        exact, measured = _verify_logs(session, ok_calls)
        shutil.rmtree(log_dir)
        return Unit(slices, exact, measured)

    def check(self, units: List[Unit]) -> Tuple[int, int, List[str]]:
        attempted = failed = 0
        problems: List[str] = []
        for index, unit in enumerate(units):
            facts = unit.exact
            attempted += facts["calls"]
            failed += facts["calls"] - facts["ok_calls"]
            bad = []
            if facts["ok_calls"] != facts["calls"]:
                bad.append(f"{facts['calls'] - facts['ok_calls']} calls not ok")
            if facts["served"] != facts["calls"]:
                bad.append(f"server.served {facts['served']} != calls {facts['calls']}")
            if facts["client_rpc_records"] != facts["calls"]:
                bad.append(
                    f"client log holds {facts['client_rpc_records']} rpc records"
                )
            if facts["server_queue_records"] != facts["calls"]:
                bad.append(
                    f"server log holds {facts['server_queue_records']} queue records"
                )
            if bad:
                problems.append(f"session {index}: {'; '.join(bad)}")
        return attempted, failed, problems

    def counters(self, units: List[Unit], spans: SpanRecorder) -> Dict[str, float]:
        import statistics

        # Latency in the fastest fifth of slices: closed-loop latency
        # follows throughput, so the quiet slices are the ones to read.
        ranked = sorted(
            (t, u, i) for u in units for i, t in enumerate(u.slices)
        )
        keep = ranked[: max(1, len(ranked) // 5)]
        call_us: List[float] = []
        wait_us: List[float] = []
        for _t, unit, index in keep:
            call_us += unit.measured["call_us"][index]
            wait_us += unit.measured["wait_us"][index]
        call_us.sort()
        calls = sum(u.exact["calls"] + 1 for u in units)  # + each dial call
        return {
            "live.client.call_p50_us": statistics.median(call_us),
            "live.client.call_p99_us": call_us[int(len(call_us) * 0.99)],
            "live.server.queue_wait_p50_us": statistics.median(wait_us),
            "live.events.records_per_call": sum(u.exact["call_records"] for u in units) / calls,
            "live.events.bytes_per_call": sum(u.measured["log_bytes"] for u in units) / calls,
            "live.server.start_ms": min(spans.durations("LiveServer.start")) * 1e3,
            "live.client.dial_first_call_ms": min(spans.durations("dial_first_call")) * 1e3,
        }

    def probes(self, seed: int, scratch: Path) -> Dict[str, float]:
        import statistics

        from benchmarks.ledger import probes

        async def phases() -> Dict[str, float]:
            session = _Session(seed, scratch / "probe", observed=False)
            try:
                client = await session.start(None)
                unloaded = await _call_latencies_us(client, 1, 1500, PAYLOAD_BYTES)
                bulk = await _call_latencies_us(client, CALLERS, 60, 64 * 1024)
            finally:
                await session.close()
            return {
                "live.client.unloaded_p50_us": statistics.median(unloaded),
                "live.client.bulk64k_p50_us": statistics.median(bulk),
            }

        return {
            **asyncio.run(phases()),
            **probes.wire_probes(),
            **probes.event_log_probe(scratch),
            **probes.core_probes(),
            **probes.obs_probes(),
        }


async def _call_latencies_us(
    client: AdmissionClient, callers: int, calls_each: int, payload_bytes: int
) -> List[float]:
    out: List[float] = []

    async def caller() -> None:
        for i in range(calls_each):
            start = time.perf_counter()
            result = await client.call(i & 1, payload_bytes=payload_bytes)
            out.append((time.perf_counter() - start) * 1e6)
            if result.status != "ok":
                raise RuntimeError(f"probe call came back {result.status!r}")

    await asyncio.gather(*(caller() for _ in range(callers)))
    return out


def _verify_logs(
    session: _Session, ok_calls: int
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Parse both logs strictly and reduce them to the facts the checks
    and latency metrics need (the parsed records are dropped here so a
    session's memory does not outlive it)."""
    client_records = read_events(session.client_path, strict=True)
    server_records = read_events(session.server_path, strict=True)
    calls = SESSION_SLICES * SLICE_CALLS
    # rpc_id 1 is the dial call; slice s holds ids 2+480s .. 1+480(s+1).
    # Packed doubles: a run keeps these for every session it measured.
    call_us = [array("d") for _ in range(SESSION_SLICES)]
    rpc_records = 0
    for record in client_records:
        if record["type"] == "rpc" and record["rpc_id"] > 1:
            rpc_records += 1
            call_us[(record["rpc_id"] - 2) // SLICE_CALLS].append(record["rnl_ns"] / 1e3)
    wait_us = [array("d") for _ in range(SESSION_SLICES)]
    queue_records = -1  # the dial call's
    for record in server_records:
        if record["type"] == "queue":
            if queue_records >= 0:
                wait_us[min(queue_records // SLICE_CALLS, SESSION_SLICES - 1)].append(
                    (record["dequeued_ns"] - record["enqueued_ns"]) / 1e3
                )
            queue_records += 1
    exact = {
        "calls": calls,
        "ok_calls": ok_calls,
        "served": session.server.served - 1,
        "client_rpc_records": rpc_records,
        "server_queue_records": queue_records,
        # Records a call causes (the periodic and per-connection ones
        # excluded), the dial call's included.
        "call_records": sum(
            1 for r in client_records + server_records if r["type"] not in _BACKGROUND
        ),
    }
    measured = {
        "log_bytes": session.client_path.stat().st_size
        + session.server_path.stat().st_size,
        "call_us": call_us,
        "wait_us": wait_us,
    }
    return exact, measured


def make(name: str) -> LiveWorkload:
    return LiveWorkload()

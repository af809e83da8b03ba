"""The client-side admission library and the open-loop workload driver.

:class:`AdmissionClient` is the reusable wrapper applications embed: it
owns one transport-neutral :class:`~repro.core.interface.AdmissionEngine`
(Algorithm 1 state for this client's channels), one TCP connection to
the server, and the failure machinery around each call — per-request
deadlines, per-attempt timeouts, reconnect on connection loss, and
jittered exponential-backoff retries drawn from a seeded stream so test
runs are reproducible.

The admission decision is made **once per logical RPC**, before the
first attempt; retries re-send the same decided request.  That keeps
the engine's coin-flip sequence a pure function of the arrival
sequence — the property the sim-vs-live convergence gate relies on
(the simulator reference consumes the identical coin stream).

:func:`run_client` is the open-loop driver used by ``python -m repro
live``: it pre-computes each QoS level's Poisson arrival schedule from
the shared workload substreams, then fires one :meth:`AdmissionClient.call`
task per arrival without waiting for completions (open loop: offered
load does not shrink when the server slows down — the regime where
admission control has to do its job).
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.admission import AdmissionParams
from repro.core.clocks import ClockSource
from repro.core.interface import AdmissionEngine, AdmissionOutcome
from repro.core.slo import SLOMap
from repro.live.events import EventLog
from repro.live.wire import (
    READ_BYTES,
    FrameError,
    FrameParser,
    FrameWriter,
    Request,
    Response,
    decode_header,
    request_size_mtus,
)
from repro.live.workload import LiveWorkload
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    AdmissionEvent,
    RpcSpan,
    derive_span_id,
    derive_trace_id,
    traceparent_of,
)
from repro.sim.rng import poisson_interarrivals_ns, substream


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline, per-attempt timeout, and backoff schedule for one call.

    Backoff for attempt *n* (1-based) is ``base * 2**(n-1)`` capped at
    ``backoff_cap_ns``, scaled by a uniform jitter factor in
    ``[1 - jitter, 1 + jitter]`` — the standard decorrelation so a
    burst of clients that failed together does not retry together.
    """

    max_attempts: int = 3
    #: End-to-end budget per logical RPC, across all attempts.
    deadline_ns: int = 200_000_000
    #: How long one attempt waits for its response.
    attempt_timeout_ns: int = 80_000_000
    backoff_base_ns: int = 10_000_000
    backoff_cap_ns: int = 100_000_000
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def backoff_ns(self, attempt: int, rng: random.Random) -> int:
        raw = min(
            self.backoff_cap_ns, self.backoff_base_ns * (2 ** max(0, attempt - 1))
        )
        factor = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return max(0, int(raw * factor))


@dataclass(frozen=True)
class CallResult:
    """What one logical RPC came back with."""

    ok: bool
    status: str  # "ok" | "timeout" | "error"
    attempts: int
    outcome: AdmissionOutcome
    rnl_ns: Optional[int] = None


class _ClientMetrics:
    """Per-QoS client instruments, resolved once at construction.

    Same zero-overhead-off shape as the server's holder: each off-path
    site is one ``is not None`` test, each on-path update a pre-resolved
    instrument call.  The counter/histogram names deliberately reuse the
    sim-side vocabulary of :mod:`repro.rpc.stack` (``rpc_issued``,
    ``rnl_norm_ns``, ...) so the series/report layers consume either
    world; ``attempt_latency_ns`` and the ``slo_*`` counters are
    live-only additions.
    """

    __slots__ = (
        "issued",
        "downgraded",
        "completed",
        "completed_bytes",
        "terminated",
        "rnl",
        "attempt_latency",
        "slo_tracked",
        "slo_miss",
        "p_admit",
    )

    def __init__(
        self, registry: MetricsRegistry, qos_levels: int, channel: str
    ) -> None:
        levels = range(qos_levels)
        self.issued: List[Counter] = [
            registry.counter("rpc_issued", qos=q) for q in levels
        ]
        self.downgraded: List[Counter] = [
            registry.counter("rpc_downgraded", qos=q) for q in levels
        ]
        self.completed: List[Counter] = [
            registry.counter("rpc_completed", qos=q) for q in levels
        ]
        self.completed_bytes: List[Counter] = [
            registry.counter("rpc_completed_bytes", qos=q) for q in levels
        ]
        self.terminated: List[Counter] = [
            registry.counter("rpc_terminated", qos=q) for q in levels
        ]
        self.rnl: List[Histogram] = [
            registry.histogram("rnl_norm_ns", qos=q) for q in levels
        ]
        self.attempt_latency: List[Histogram] = [
            registry.histogram("attempt_latency_ns", qos=q) for q in levels
        ]
        self.slo_tracked: List[Counter] = [
            registry.counter("slo_tracked", qos=q) for q in levels
        ]
        self.slo_miss: List[Counter] = [
            registry.counter("slo_miss", qos=q) for q in levels
        ]
        self.p_admit: List[Gauge] = [
            registry.gauge("p_admit", qos=q, node=channel) for q in levels
        ]


class AdmissionClient:
    """One client endpoint: admission engine + connection + retries."""

    def __init__(
        self,
        client_id: str,
        host: str,
        port: int,
        slo_map: SLOMap,
        *,
        params: Optional[AdmissionParams] = None,
        seed: int = 0,
        clock: ClockSource,
        log: EventLog,
        retry: RetryPolicy = RetryPolicy(),
        dst: str = "srv",
        src_index: int = 0,
        backoff_rng: Optional[random.Random] = None,
        registry: Optional[MetricsRegistry] = None,
        trace: bool = False,
    ) -> None:
        self.client_id = client_id
        #: Causal tracing: off by default (zero-overhead-off — no extra
        #: clock reads, no extra log fields, no wire-header changes).
        self._trace = trace
        self._completing_rpc_id = 0
        self._host = host
        self._port = port
        self._clock = clock
        self._log = log
        self._retry = retry
        self._dst = dst
        self._src_index = src_index
        self._channel = f"{client_id}->{dst}"
        self._backoff_rng = (
            backoff_rng
            if backoff_rng is not None
            else substream(seed, f"live:backoff:{client_id}")
        )
        self.engine = AdmissionEngine(
            slo_map,
            params if params is not None else AdmissionParams(),
            seed=seed,
            clock=clock,
            on_adjust=self._log_adjust,
        )
        self._reader_task: Optional[asyncio.Task[None]] = None
        self._writer: Optional[FrameWriter] = None
        self._conn_lock = asyncio.Lock()
        self._pending: Dict[int, "asyncio.Future[Response]"] = {}
        #: When each waiting attempt times out, in loop time; one timer,
        #: armed for the earliest of them, serves every attempt.
        self._expiries: Dict[int, float] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        self._timer_when = math.inf
        self._next_id = 0
        self._closed = False
        self.calls = 0
        self.failures = 0
        self.rejected = 0
        #: Telemetry holder; None means every site is a single falsy test.
        self._metrics: Optional[_ClientMetrics] = (
            _ClientMetrics(
                registry, slo_map.qos_config.num_levels, self._channel
            )
            if registry is not None
            else None
        )

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def _open_writer(self) -> Optional[FrameWriter]:
        """The writer an attempt may use as it stands, else ``None``."""
        writer = self._writer
        if writer is None or self._closed or writer.is_closing():
            return None
        return writer

    async def _ensure_conn(self) -> FrameWriter:
        # Serialized: a burst of concurrent calls on a fresh client must
        # share one connection, not stampede into N parallel dials.
        async with self._conn_lock:
            if self._closed:
                raise ConnectionError("client is closed")
            open_writer = self._open_writer()
            if open_writer is not None:
                return open_writer
            reader, stream = await asyncio.open_connection(self._host, self._port)
            writer = self._writer = FrameWriter(stream)
            self._reader_task = asyncio.create_task(self._reader_loop(reader))
            self._log.conn(
                "connect", f"{self._host}:{self._port}", self._clock.now_ns()
            )
            return writer

    async def _reader_loop(self, reader: asyncio.StreamReader) -> None:
        parser = FrameParser()
        try:
            while True:
                data = await reader.read(READ_BYTES)
                if not data:
                    break  # the server hung up, mid-frame or not
                for kind, header in parser.feed(data):
                    response = decode_header(kind, header, Response)
                    future = self._pending.pop(response.request_id, None)
                    if future is not None and not future.done():
                        future.set_result(response)
        except (ConnectionError, FrameError):
            pass
        finally:
            self._drop_conn("reset")

    def _drop_conn(self, reason: str) -> None:
        """Fail every in-flight attempt; the callers' retry loops cope."""
        if self._writer is not None:
            try:
                self._writer.close()
            except Exception:
                pass
            self._writer = None
            self._log.conn(reason, f"{self._host}:{self._port}", self._clock.now_ns())
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(ConnectionResetError(reason))

    async def aclose(self) -> None:
        """Idempotent: tears down the connection and reader task.

        Teardown happens under ``_conn_lock``: without it, a dial in
        ``_ensure_conn`` that is already past its ``_closed`` check can
        complete *after* this teardown and resurrect the writer and a
        fresh reader task — a socket and task leak on a closed client.
        Holding the lock means any in-flight dial either finished first
        (its connection is dropped here) or re-checks ``_closed`` once
        we release.  The reader task is swapped out before the
        lock-free cancel/await so no other coroutine can observe a
        half-cancelled task through ``self._reader_task``.
        """
        if self._closed:
            return
        async with self._conn_lock:
            self._closed = True
            self._drop_conn("close")
            task, self._reader_task = self._reader_task, None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._timer_when = math.inf
        if task is not None:
            task.cancel()
            try:
                await task
            except asyncio.CancelledError:
                pass

    # ------------------------------------------------------------------
    # attempt timeouts
    # ------------------------------------------------------------------
    def _expire_at(
        self, loop: asyncio.AbstractEventLoop, rpc_id: int, when: float
    ) -> None:
        """Fail attempt ``rpc_id`` at loop time ``when`` unless it has
        resolved by then.  The timer is re-armed only for an expiry
        sooner than the one it waits for: with a steady timeout every
        new expiry is the latest, and arming costs a dict store."""
        self._expiries[rpc_id] = when
        if when < self._timer_when:
            if self._timer is not None:
                self._timer.cancel()
            self._timer_when = when
            self._timer = loop.call_at(when, self._expire_due, loop)

    def _expire_due(self, loop: asyncio.AbstractEventLoop) -> None:
        # Due: everything up to the time this timer was armed for (the
        # loop may fire it one clock resolution early) or up to now.
        due = max(self._timer_when, loop.time())
        soonest = math.inf
        for rpc_id, when in list(self._expiries.items()):
            if when <= due:
                del self._expiries[rpc_id]
                future = self._pending.get(rpc_id)
                if future is not None and not future.done():
                    future.set_exception(asyncio.TimeoutError())
            elif when < soonest:
                soonest = when
        self._timer_when = soonest
        self._timer = (
            loop.call_at(soonest, self._expire_due, loop)
            if soonest < math.inf
            else None
        )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _log_adjust(
        self, dst: str, qos: int, p_admit: float, kind: str, now_ns: int
    ) -> None:
        if self._metrics is not None:
            self._metrics.p_admit[qos].set(p_admit)
        self._log.admission(
            AdmissionEvent(
                time_ns=now_ns,
                channel=f"{self.client_id}->{dst}",
                qos=qos,
                p_admit=p_admit,
                kind=kind,
                rpc_id=self._completing_rpc_id,
            )
        )

    def _engine_complete(
        self, rpc_id: int, rnl_ns: int, size_mtus: int, qos: int
    ) -> None:
        """Feed one RNL measurement back, attributing the AIMD
        adjustment it triggers to the completing RPC when traced."""
        if self._trace:
            self._completing_rpc_id = rpc_id
            try:
                self.engine.complete(self._dst, rnl_ns, size_mtus, qos)
            finally:
                self._completing_rpc_id = 0
        else:
            self.engine.complete(self._dst, rnl_ns, size_mtus, qos)

    def _log_span(
        self,
        rpc_id: int,
        outcome: AdmissionOutcome,
        issued_ns: int,
        payload_bytes: int,
        size_mtus: int,
        completed_ns: Optional[int],
        rnl_ns: Optional[int],
        slo_met: Optional[bool],
        terminated: bool,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        self._log.rpc(
            RpcSpan(
                rpc_id=rpc_id,
                src=self._src_index,
                dst=0,
                qos_requested=outcome.qos_requested,
                qos_run=outcome.qos_run,
                downgraded=outcome.downgraded,
                issued_ns=issued_ns,
                payload_bytes=payload_bytes,
                size_mtus=size_mtus,
                completed_ns=completed_ns,
                rnl_ns=rnl_ns,
                slo_met=slo_met,
                terminated=terminated,
            ),
            **(extra or {}),
        )

    # ------------------------------------------------------------------
    # the call path
    # ------------------------------------------------------------------
    async def call(self, qos: int, payload_bytes: int = 0) -> CallResult:
        """Issue one logical RPC: decide once, then attempt with retries."""
        issued_ns = self._clock.now_ns()
        outcome = self.engine.decide(self._dst, qos, payload_bytes)
        size_mtus = request_size_mtus(payload_bytes)
        self._next_id += 1
        rpc_id = self._next_id
        self.calls += 1
        trace_id = ""
        span_id = ""
        decide_ns = 0
        if self._trace:
            # One extra clock read per call, gated on the trace flag, so
            # untraced clock-read sequences (and logs) stay identical.
            decide_ns = self._clock.now_ns() - issued_ns
            key = f"{self.client_id}:{rpc_id}"
            trace_id = derive_trace_id(key)
            span_id = derive_span_id(key)
        if self._metrics is not None:
            self._metrics.issued[outcome.qos_requested].inc()
            if outcome.downgraded:
                self._metrics.downgraded[outcome.qos_requested].inc()

        slo = self.engine.slo_map
        attempt = 0
        status = "error"
        while attempt < self._retry.max_attempts:
            attempt += 1
            elapsed = self._clock.now_ns() - issued_ns
            # Derived, not re-read: no extra clock call on the off path.
            attempt_start_ns = issued_ns + elapsed
            remaining = self._retry.deadline_ns - elapsed
            if remaining <= 0:
                status = "timeout"
                break
            attempt_span_id = ""
            traceparent = ""
            if self._trace:
                attempt_span_id = derive_span_id(
                    f"{self.client_id}:{rpc_id}:{attempt}"
                )
                traceparent = traceparent_of(trace_id, attempt_span_id)
            try:
                # An open connection is used as it stands; only a missing,
                # closed or closing one goes through the dial lock.  No
                # await separates this test from the write below.
                writer = self._open_writer()
                if writer is None:
                    writer = await self._ensure_conn()
                loop = asyncio.get_running_loop()
                future: "asyncio.Future[Response]" = loop.create_future()
                self._pending[rpc_id] = future
                writer.send(
                    Request(
                        request_id=rpc_id,
                        client=self.client_id,
                        qos_requested=outcome.qos_requested,
                        qos_run=outcome.qos_run,
                        downgraded=outcome.downgraded,
                        payload_bytes=payload_bytes,
                        size_mtus=size_mtus,
                        attempt=attempt,
                        issued_ns=issued_ns,
                        traceparent=traceparent,
                    ),
                    body_len=payload_bytes,
                )
                await writer.drain()
                timeout_ns = min(self._retry.attempt_timeout_ns, remaining)
                # An expiry on the pending future bounds the attempt:
                # ``wait_for`` would wrap every call in its own
                # timeout scope and cancellation dance for the same end.
                self._expire_at(loop, rpc_id, loop.time() + timeout_ns / 1e9)
                try:
                    response = await future
                finally:
                    self._expiries.pop(rpc_id, None)
            except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
                self._pending.pop(rpc_id, None)
                status = "timeout" if isinstance(exc, asyncio.TimeoutError) else "error"
                now_ns = self._clock.now_ns()
                if self._metrics is not None:
                    self._metrics.attempt_latency[outcome.qos_run].observe(
                        float(now_ns - attempt_start_ns)
                    )
                if self._trace:
                    self._log.write_record(
                        {
                            "type": "attempt",
                            "trace_id": trace_id,
                            "span_id": attempt_span_id,
                            "parent_id": span_id,
                            "request_id": rpc_id,
                            "attempt": attempt,
                            "start_ns": attempt_start_ns,
                            "end_ns": now_ns,
                            "status": status,
                        }
                    )
                if (
                    attempt >= self._retry.max_attempts
                    or now_ns - issued_ns >= self._retry.deadline_ns
                ):
                    break
                delay_ns = self._retry.backoff_ns(attempt, self._backoff_rng)
                self._log.retry(
                    rpc_id,
                    attempt,
                    delay_ns,
                    status,
                    now_ns,
                    trace_id=trace_id if self._trace else None,
                )
                await asyncio.sleep(delay_ns / 1e9)
                continue
            completed_ns = self._clock.now_ns()
            rnl_ns = completed_ns - issued_ns
            if self._trace:
                self._log.write_record(
                    {
                        "type": "attempt",
                        "trace_id": trace_id,
                        "span_id": attempt_span_id,
                        "parent_id": span_id,
                        "request_id": rpc_id,
                        "attempt": attempt,
                        "start_ns": attempt_start_ns,
                        "end_ns": completed_ns,
                        "status": response.status,
                        "queue_ns": response.queue_ns,
                        "service_ns": response.service_ns,
                        "server_traceparent": response.traceparent,
                    }
                )
            if self._metrics is not None:
                self._metrics.attempt_latency[outcome.qos_run].observe(
                    float(completed_ns - attempt_start_ns)
                )
                if response.status == "ok":
                    self._metrics.completed[outcome.qos_run].inc()
                    self._metrics.completed_bytes[outcome.qos_run].inc(
                        payload_bytes
                    )
                    self._metrics.rnl[outcome.qos_run].observe(
                        rnl_ns / size_mtus
                    )
            if response.status == "rejected":
                self.rejected += 1
                if slo.has_slo(outcome.qos_run):
                    # A definitive reject of SLO-class work is an SLO
                    # miss by construction; feed exactly the budget so
                    # the signal is identical in sim and live (the
                    # decrement is size-based, not magnitude-based).
                    self._engine_complete(
                        rpc_id,
                        slo.get(outcome.qos_run).budget_ns(size_mtus),
                        size_mtus,
                        outcome.qos_run,
                    )
            else:
                self._engine_complete(rpc_id, rnl_ns, size_mtus, outcome.qos_run)
            slo_met: Optional[bool] = None
            if slo.has_slo(outcome.qos_requested):
                slo_met = (
                    not outcome.downgraded
                    and response.status == "ok"
                    and slo.get(outcome.qos_requested).is_met(rnl_ns, size_mtus)
                )
            if self._metrics is not None and slo_met is not None:
                self._metrics.slo_tracked[outcome.qos_requested].inc()
                if not slo_met:
                    self._metrics.slo_miss[outcome.qos_requested].inc()
            self._log_span(
                rpc_id,
                outcome,
                issued_ns,
                payload_bytes,
                size_mtus,
                completed_ns,
                rnl_ns,
                slo_met,
                terminated=False,
                extra=(
                    {
                        "trace_id": trace_id,
                        "span_id": span_id,
                        "decide_ns": decide_ns,
                        "attempts": attempt,
                    }
                    if self._trace
                    else None
                ),
            )
            return CallResult(
                ok=response.status == "ok",
                status=response.status,
                attempts=attempt,
                outcome=outcome,
                rnl_ns=rnl_ns,
            )

        # Exhausted: a failed SLO-class RPC is an SLO miss by definition,
        # so feed the elapsed time back as a (missing) measurement — the
        # engine must throttle when the server stops answering, exactly
        # like it throttles when the server answers late.
        failed_ns = self._clock.now_ns()
        if slo.has_slo(outcome.qos_run):
            self._engine_complete(
                rpc_id, failed_ns - issued_ns, size_mtus, outcome.qos_run
            )
        self.failures += 1
        slo_met = False if slo.has_slo(outcome.qos_requested) else None
        if self._metrics is not None:
            self._metrics.terminated[outcome.qos_run].inc()
            if slo_met is not None:
                self._metrics.slo_tracked[outcome.qos_requested].inc()
                self._metrics.slo_miss[outcome.qos_requested].inc()
        self._log_span(
            rpc_id,
            outcome,
            issued_ns,
            payload_bytes,
            size_mtus,
            completed_ns=None,
            rnl_ns=None,
            slo_met=slo_met,
            terminated=True,
            extra=(
                {
                    "trace_id": trace_id,
                    "span_id": span_id,
                    "decide_ns": decide_ns,
                    "attempts": attempt,
                }
                if self._trace
                else None
            ),
        )
        return CallResult(ok=False, status=status, attempts=attempt, outcome=outcome)


def arrival_schedule(workload: LiveWorkload, index: int) -> List[Tuple[int, int]]:
    """Merged ``(time_ns, qos)`` arrival list for one client.

    Built from the shared per-(client, qos) substreams, so the simulator
    reference reproduces the identical sequence.  Ties are broken by QoS
    index to keep the merge deterministic.
    """
    entries: List[Tuple[int, int]] = []
    for qos, rate in sorted(workload.rates_rps().items()):
        rng = workload.arrival_rng(index, qos)
        gaps = poisson_interarrivals_ns(rng, rate)
        now_ns = 0
        while True:
            now_ns += next(gaps)
            if now_ns >= workload.duration_ns:
                break
            entries.append((now_ns, qos))
    entries.sort()
    return entries


async def run_client(
    workload: LiveWorkload,
    index: int,
    host: str,
    port: int,
    clock: ClockSource,
    log: EventLog,
    retry: RetryPolicy = RetryPolicy(),
    registry: Optional[MetricsRegistry] = None,
    trace: bool = False,
) -> Dict[str, int]:
    """Open-loop driver: one task per scheduled arrival, never waiting."""
    client = AdmissionClient(
        workload.client_id(index),
        host,
        port,
        workload.slo_map(),
        params=workload.params,
        seed=workload.admission_seed(index),
        clock=clock,
        log=log,
        retry=retry,
        src_index=index,
        backoff_rng=substream(
            workload.seed, f"live:backoff:{workload.client_id(index)}"
        ),
        registry=registry,
        trace=trace,
    )
    schedule = arrival_schedule(workload, index)
    in_flight: "List[asyncio.Task[CallResult]]" = []
    start_ns = clock.now_ns()
    for arrival_ns, qos in schedule:
        delay_ns = arrival_ns - (clock.now_ns() - start_ns)
        if delay_ns > 0:
            await asyncio.sleep(delay_ns / 1e9)
        in_flight.append(asyncio.create_task(client.call(qos, workload.payload_bytes)))
    if in_flight:
        # Bounded drain: every call self-limits via its deadline, so the
        # gather finishes within one deadline of the run end.
        await asyncio.wait(in_flight, timeout=retry.deadline_ns / 1e9 + 1.0)
        for task in in_flight:
            if not task.done():
                task.cancel()
    await client.aclose()
    done = sum(1 for t in in_flight if t.done() and not t.cancelled())
    return {
        "client": index,
        "calls": client.calls,
        "completed": done,
        "failures": client.failures,
        "rejected": client.rejected,
    }


__all__ = [
    "AdmissionClient",
    "CallResult",
    "RetryPolicy",
    "arrival_schedule",
    "run_client",
]

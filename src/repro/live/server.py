"""The live RPC server: asyncio TCP, strict-priority service queue.

One :class:`LiveServer` is the single bottleneck of the demo topology:
requests from every connection land in per-QoS FIFO queues and a
single dispatcher coroutine serves them strictly by QoS index (lower
index first; the simulator's egress ports run WFQ for the Aequitas
experiments and strict priority only as the fig19 baseline), charging
``service_ns_per_mtu × size_mtus`` of real time per request with
``asyncio.sleep``.  Queue residency is logged as :class:`QueueSpan`
records in the same shape the simulator's tracer emits, so live and
simulated queue logs are interchangeable downstream.

Queues are **bounded** (``queue_limit`` per QoS) with tail drop: a
request arriving at a full queue is answered immediately with a
``"rejected"`` response rather than parked past its sender's deadline.
Unbounded queues turn overload into zombie work — the server grinding
through requests whose clients gave up — and reward timeout-driven
retries with amplified load; a definitive reject gives the client-side
AIMD a crisp, immediate overload signal instead (the simulator
reference in :mod:`repro.live.simref` models the same bound).

A request header is checked against itself before it is queued:
``payload_bytes`` must fit a frame body and ``size_mtus`` must be the
MTU count of that payload, because the dispatcher charges service time
per MTU on behalf of every client.  A peer whose header fails that, or
any check in :mod:`repro.live.wire`, is disconnected and served nothing.

The dispatcher never waits on a peer's socket: it hands each response to
the connection's :class:`~repro.live.wire.FrameWriter` and moves on.  A
connection whose unsent responses pass the transport's high-water mark
belongs to a peer that has stopped reading; it is aborted, and whatever
it still has queued is skipped, not served.  Only a connection's own
handler waits in ``drain()`` (on the reject path), which holds back
nobody but that peer.

Fault injection for the test suite goes through the ``on_request``
hook: a callable receiving each decoded request that may return
``"reset"`` (abort the connection mid-request, exercising client
reconnect) or ``"drop"`` (swallow the request silently, exercising the
client's deadline timeout and backoff retry).  Production runs leave
the hook unset.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.clocks import ClockSource
from repro.live.events import EventLog
from repro.live.wire import (
    MAX_BODY_BYTES,
    READ_BYTES,
    FrameError,
    FrameParser,
    FrameWriter,
    Request,
    Response,
    decode_header,
    request_size_mtus,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import QueueSpan, parse_traceparent

#: ``on_request`` verdicts understood by the connection reader.
FAULT_RESET = "reset"
FAULT_DROP = "drop"

#: One queued unit of work: the request, its enqueue time, and the
#: connection the response goes back on.
_Work = Tuple[Request, int, FrameWriter]


class _ServerMetrics:
    """Per-QoS server instruments, resolved once at construction.

    The zero-overhead-off contract (PR 4) carries over to the live
    server: every hot-path telemetry site is a single ``is not None``
    test on the holder, and with the holder present each update is one
    pre-resolved instrument call — no registry lookups per request.
    """

    __slots__ = ("enqueued", "served", "rejected", "depth", "wait")

    def __init__(
        self, registry: MetricsRegistry, qos_levels: int, node: str
    ) -> None:
        self.enqueued: List[Counter] = [
            registry.counter("server_enqueued", qos=q, node=node)
            for q in range(qos_levels)
        ]
        self.served: List[Counter] = [
            registry.counter("server_served", qos=q, node=node)
            for q in range(qos_levels)
        ]
        self.rejected: List[Counter] = [
            registry.counter("server_rejected", qos=q, node=node)
            for q in range(qos_levels)
        ]
        self.depth: List[Gauge] = [
            registry.gauge("queue_depth", qos=q, node=node)
            for q in range(qos_levels)
        ]
        self.wait: List[Histogram] = [
            registry.histogram("queue_wait_ns", qos=q, node=node)
            for q in range(qos_levels)
        ]


class LiveServer:
    """Strict-priority single-dispatcher RPC server over asyncio TCP."""

    def __init__(
        self,
        clock: ClockSource,
        log: EventLog,
        *,
        service_ns_per_mtu: int,
        qos_levels: int = 2,
        queue_limit: int = 16,
        node: str = "srv",
        host: str = "127.0.0.1",
        port: int = 0,
        on_request: Optional[Callable[[Request], Optional[str]]] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if qos_levels < 1:
            raise ValueError("need at least one QoS level")
        if queue_limit < 1:
            raise ValueError("queue limit must be positive")
        self._clock = clock
        self._log = log
        self._service_ns_per_mtu = service_ns_per_mtu
        self._queue_limit = queue_limit
        self._node = node
        self._host = host
        self._port = port
        self.on_request = on_request
        #: index == QoS level; lower index served first.
        self._queues: List[Deque[_Work]] = [deque() for _ in range(qos_levels)]
        self._work_ready = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None
        self._dispatcher: Optional[asyncio.Task[None]] = None
        #: Open connections: writer -> the task running its handler.
        self._conns: Dict[FrameWriter, "asyncio.Task[None]"] = {}
        self._stopped = False
        #: Virtual time the service unit frees up; pacing sleeps target
        #: this schedule rather than accumulating per-sleep overshoot.
        self._free_ns = 0
        self.served = 0
        self.rejected = 0
        #: Telemetry holder; None means every site is a single falsy test.
        self._metrics: Optional[_ServerMetrics] = (
            _ServerMetrics(registry, qos_levels, node)
            if registry is not None
            else None
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> int:
        """Bind and begin serving; returns the bound port."""
        self._server = await asyncio.start_server(
            self._serve_conn, host=self._host, port=self._port
        )
        self._dispatcher = asyncio.create_task(self._dispatch_loop())
        sock = self._server.sockets[0]
        # Rebinding the requested port (possibly 0) to the OS-assigned
        # one straddles the bind await, but start() is a single-shot
        # lifecycle call: nothing else reads or writes _port until it
        # returns the bound value.
        self._port = int(sock.getsockname()[1])  # simlint: ignore[SIM015]
        return self._port

    @property
    def port(self) -> int:
        return self._port

    async def stop(self) -> None:
        """Idempotent shutdown: stop listening, then end every task.

        Returns with no task of this server left: each connection is
        closed and its handler awaited, so the handler logs its peer's
        one ``close`` record before the caller closes the log.  Not a
        drain: queued requests are not served, and a connection holding
        response bytes the kernel has not taken yet is aborted, which
        drops them — waiting on a peer that has stopped reading would
        never end.
        """
        if self._stopped:
            return
        self._stopped = True
        if self._server is not None:
            self._server.close()  # stops listening; connections stay open
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        handlers = list(self._conns.values())  # each pops itself on exit
        for conn in self._conns:
            if conn.transport.get_write_buffer_size():
                # ``close()`` would wait for the peer to take the backlog,
                # and a handler blocked in ``drain()`` with it.
                conn.transport.abort()
            else:
                self._close_writer(conn)
        if handlers:
            await asyncio.wait(handlers)
        if self._server is not None:
            # Last: from Python 3.12.1 this waits for every accepted
            # connection to be gone, where 3.11 returns at once.
            await self._server.wait_closed()

    def _close_writer(self, writer: FrameWriter) -> None:
        try:
            writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # per-connection reader
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, stream: asyncio.StreamWriter
    ) -> None:
        peername = stream.get_extra_info("peername")
        peer = f"{peername[0]}:{peername[1]}" if peername else "?"
        task = asyncio.current_task()
        assert task is not None  # the stream protocol runs handlers as tasks
        conn = FrameWriter(stream)
        self._conns[conn] = task
        self._log.conn("accept", peer, self._clock.now_ns())
        try:
            await self._read_requests(reader, conn)
        except (ConnectionError, FrameError):
            pass  # a lost or malformed peer gets disconnected, not served
        finally:
            self._conns.pop(conn, None)
            self._close_writer(conn)
            self._log.conn("close", peer, self._clock.now_ns())

    async def _read_requests(
        self, reader: asyncio.StreamReader, conn: FrameWriter
    ) -> None:
        """Queue or reject what the peer sends until it is done, lost or
        malformed (returns, or raises what the socket or parser raised)."""
        parser = FrameParser()
        while not self._stopped:
            data = await reader.read(READ_BYTES)
            if not data:
                return  # the peer hung up, mid-frame or not
            for kind, header in parser.feed(data):
                request = decode_header(kind, header, Request)
                payload_bytes = request.payload_bytes
                if (
                    not 0 <= payload_bytes <= MAX_BODY_BYTES
                    or request.size_mtus != request_size_mtus(payload_bytes)
                ):
                    # The dispatcher charges service time per MTU, for
                    # every client: a size the peer made up (10**13
                    # MTUs of an empty body) is malformed like any other
                    # header that contradicts itself.
                    return
                verdict = self.on_request(request) if self.on_request else None
                if verdict == FAULT_RESET:
                    return
                if verdict == FAULT_DROP:
                    continue
                qos = min(max(request.qos_run, 0), len(self._queues) - 1)
                if len(self._queues[qos]) >= self._queue_limit:
                    # Bounded queue, tail drop: overload is answered
                    # immediately instead of parked until the client's
                    # deadline has long passed — the definitive reject
                    # is what keeps retry storms from amplifying load.
                    self.rejected += 1
                    if self._metrics is not None:
                        self._metrics.rejected[qos].inc()
                    conn.send(
                        Response(
                            request_id=request.request_id,
                            status="rejected",
                            queue_ns=0,
                            service_ns=0,
                            traceparent=request.traceparent,
                        )
                    )
                    # Waiting here holds back this peer's own reads and
                    # nobody else's.
                    await conn.drain()
                    continue
                self._queues[qos].append((request, self._clock.now_ns(), conn))
                if self._metrics is not None:
                    self._metrics.enqueued[qos].inc()
                    self._metrics.depth[qos].set(float(len(self._queues[qos])))
                self._work_ready.set()

    # ------------------------------------------------------------------
    # strict-priority dispatcher
    # ------------------------------------------------------------------
    def _next_work(self) -> Optional[Tuple[int, _Work]]:
        for qos, queue in enumerate(self._queues):
            if queue:
                return qos, queue.popleft()
        return None

    async def _dispatch_loop(self) -> None:
        while True:
            picked = self._next_work()
            if picked is None:
                self._work_ready.clear()
                await self._work_ready.wait()
                continue
            qos, (request, enqueued_ns, conn) = picked
            if self._metrics is not None:
                self._metrics.depth[qos].set(float(len(self._queues[qos])))
            if conn.is_closing():
                # Its peer left, or stopped reading and was aborted:
                # nobody is waiting for this, so it costs no service time.
                continue
            dequeued_ns = self._clock.now_ns()
            if self._metrics is not None:
                self._metrics.wait[qos].observe(float(dequeued_ns - enqueued_ns))
                self._metrics.served[qos].inc()
            service_ns = self._service_ns_per_mtu * request.size_mtus
            # Pace against the virtual schedule: the unit frees up
            # service_ns after it last freed (or after this request
            # arrived, when it went idle).  Event-loop timers overshoot
            # by OS-tick amounts; anchoring each sleep to the schedule
            # instead of to "now" stops that overshoot accumulating, so
            # sustained throughput matches the modeled capacity the
            # simulator reference assumes.
            self._free_ns = max(self._free_ns, enqueued_ns) + service_ns
            sleep_ns = self._free_ns - dequeued_ns
            if sleep_ns > 0:
                await asyncio.sleep(sleep_ns / 1e9)
            # Causal join: a propagated trace context attaches the
            # server-side segments to the client's attempt span.  Purely
            # data-driven — an untraced client sends no traceparent and
            # the log stays byte-identical to the pre-tracing stream.
            context = (
                parse_traceparent(request.traceparent)
                if request.traceparent
                else None
            )
            if context is None:
                self._log.queue(
                    QueueSpan(
                        node=self._node,
                        qos=qos,
                        enqueued_ns=enqueued_ns,
                        dequeued_ns=dequeued_ns,
                        size_bytes=request.payload_bytes,
                        kind=0,
                    )
                )
            else:
                trace_id, parent_id = context
                self._log.queue(
                    QueueSpan(
                        node=self._node,
                        qos=qos,
                        enqueued_ns=enqueued_ns,
                        dequeued_ns=dequeued_ns,
                        size_bytes=request.payload_bytes,
                        kind=0,
                    ),
                    trace_id=trace_id,
                    parent_id=parent_id,
                )
                # The service segment on the virtual schedule: it starts
                # when the unit freed up for this request and runs for
                # service_ns.  Derived, not re-read — no extra clock
                # calls on the dispatch path even with tracing on.
                self._log.write_record(
                    {
                        "type": "service",
                        "trace_id": trace_id,
                        "parent_id": parent_id,
                        "node": self._node,
                        "qos": qos,
                        "request_id": request.request_id,
                        "start_ns": self._free_ns - service_ns,
                        "duration_ns": service_ns,
                    }
                )
            self.served += 1
            response = Response(
                request_id=request.request_id,
                status="ok",
                queue_ns=dequeued_ns - enqueued_ns,
                service_ns=service_ns,
                traceparent=request.traceparent,
            )
            try:
                conn.send(response)
            except ConnectionError:
                continue  # client went away; its retry machinery copes
            if conn.stalled():
                # Never ``drain()`` here: one peer that has stopped
                # reading would park the only dispatcher for every client.
                # Its handler wakes on the lost connection and logs the
                # peer's ``close``.
                conn.transport.abort()


__all__ = ["FAULT_DROP", "FAULT_RESET", "LiveServer"]

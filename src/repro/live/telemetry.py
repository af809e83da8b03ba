"""The live telemetry plane: wall-clock sampler + scrape endpoint.

Two pieces, both strictly additive to the live runtime:

* :class:`LiveTelemetry` — a wall-clock twin of the sim-time sampler
  :meth:`MetricsRegistry.install_sampler`: a background task snapshots
  the process's registry every ``interval_ns``, appends each snapshot
  to a ``metrics`` JSONL sidecar log, and (when armed with a
  :class:`~repro.obs.slo.SloMonitor`) streams the snapshots through the
  burn-rate detector, writing any state-transition ``alert`` records
  into the process's *event* log where post-mortem tooling finds them
  next to the spans they explain.

* :class:`TelemetryEndpoint` — a dependency-free asyncio HTTP listener
  serving the registry as OpenMetrics text exposition on ``/metrics``
  (plus a ``/healthz`` liveness probe), so a live run can be watched
  with any Prometheus-compatible scraper while it happens.

Both only *read* instrument state.  A process that never constructs
them (telemetry off) runs the byte-identical event-log path it ran
before this module existed — the live restatement of the PR 4
zero-overhead-off contract, enforced by
``tests/test_live_telemetry.py``.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.clocks import ClockSource
from repro.live.events import EventLog
from repro.obs.metrics import (
    OPENMETRICS_CONTENT_TYPE,
    MetricsRegistry,
    render_openmetrics,
)
from repro.obs.slo import SloMonitor

#: Default wall-clock sampling cadence: 4 Hz keeps a 10 s smoke run's
#: metrics log at ~40 lines while still resolving AIMD convergence
#: (whose settle time is seconds).
DEFAULT_SAMPLE_INTERVAL_NS = 250_000_000


@dataclass(frozen=True)
class TelemetryConfig:
    """What ``run_live`` needs to arm the telemetry plane.

    Picklable: the spawn context ships one instance to every child.
    Burn-rate windows are not configured here — each client scales the
    :class:`~repro.obs.slo.BurnRateConfig` defaults to the workload
    horizon (:meth:`BurnRateConfig.scaled_to`).
    """

    #: Bind port for the server's scrape endpoint (0 = OS-assigned).
    metrics_port: int = 0
    sample_interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS

    def __post_init__(self) -> None:
        if self.sample_interval_ns <= 0:
            raise ValueError("sample interval must be positive")


class LiveTelemetry:
    """Background wall-clock snapshot sampler for one live process."""

    def __init__(
        self,
        registry: MetricsRegistry,
        clock: ClockSource,
        metrics_log: EventLog,
        *,
        event_log: Optional[EventLog] = None,
        monitor: Optional[SloMonitor] = None,
        interval_ns: int = DEFAULT_SAMPLE_INTERVAL_NS,
    ) -> None:
        if interval_ns <= 0:
            raise ValueError("sample interval must be positive")
        self._registry = registry
        self._clock = clock
        self._metrics_log = metrics_log
        self._event_log = event_log
        self._monitor = monitor
        self._interval_ns = interval_ns
        self._task: Optional["asyncio.Task[None]"] = None
        self._last_bounds: Dict[str, List[float]] = {}
        self.samples = 0

    def sample(self) -> None:
        """Take one snapshot now: log it, and run the SLO monitor."""
        now_ns = self._clock.now_ns()
        snapshot = self._registry.snapshot(include_buckets=True)
        record: Dict[str, object] = {
            "type": "metrics",
            "time_ns": now_ns,
            "metrics": snapshot,
        }
        # Bucket bounds ride along only when they change (a histogram
        # label appearing mid-run), so consumers can difference bucket
        # counts without a per-line copy of ~70 floats per label.
        bounds = self._registry.all_histogram_bounds()
        if bounds != self._last_bounds:
            record["bounds"] = bounds
            self._last_bounds = bounds
        self._metrics_log.write_record(record)
        self.samples += 1
        if self._monitor is not None:
            for alert in self._monitor.observe(now_ns, snapshot):
                sink = self._event_log
                if sink is not None:
                    sink.alert(alert.as_record())
                self._metrics_log.write_record(alert.as_record())

    async def _sample_loop(self) -> None:
        while True:
            await asyncio.sleep(self._interval_ns / 1e9)
            self.sample()

    async def start(self) -> None:
        if self._task is None:
            self._task = asyncio.create_task(self._sample_loop())

    async def stop(self) -> None:
        """Idempotent: cancel the loop, take one final snapshot so the
        log's last line reflects end-of-run totals, close the log."""
        task, self._task = self._task, None
        if task is None:
            return
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        self.sample()
        self._metrics_log.close()


class TelemetryEndpoint:
    """Minimal asyncio HTTP listener: ``/metrics`` + ``/healthz``.

    One request per connection (``Connection: close``): a scrape every
    few seconds doesn't need keep-alive, and closing eagerly keeps the
    connection set from growing under a misbehaving poller.  Render
    happens inline on the event loop — :func:`render_openmetrics` is a
    pure read of counter state, microseconds at demo scale.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "repro",
    ) -> None:
        self._registry = registry
        self._host = host
        self._port = port
        self._prefix = prefix
        self._server: Optional[asyncio.base_events.Server] = None
        self.scrapes = 0

    async def start(self) -> int:
        """Bind and begin serving; returns the bound port."""
        self._server = await asyncio.start_server(
            self._handle, host=self._host, port=self._port
        )
        sock = self._server.sockets[0]
        # Same single-shot lifecycle shape as LiveServer.start(): the
        # rebind straddles the bind await but nothing reads _port until
        # start() returns it.
        self._port = int(sock.getsockname()[1])  # simlint: ignore[SIM015]
        return self._port

    @property
    def port(self) -> int:
        return self._port

    async def stop(self) -> None:
        """Idempotent."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[str]:
        """Parse the request line, drain headers; returns the path."""
        request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) < 2:
            return None
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            if line in (b"\r\n", b"\n", b""):
                break
        # Ignore any query string; routing is path-only.
        return parts[1].split("?", 1)[0]

    def _respond(self, path: Optional[str]) -> "tuple[str, str, str]":
        """Route: returns (status line, content type, body)."""
        if path == "/metrics":
            body = render_openmetrics(self._registry, prefix=self._prefix)
            return "200 OK", OPENMETRICS_CONTENT_TYPE, body
        if path == "/healthz":
            return "200 OK", "text/plain; charset=utf-8", "ok\n"
        if path is None:
            return "400 Bad Request", "text/plain; charset=utf-8", "bad request\n"
        return "404 Not Found", "text/plain; charset=utf-8", "not found\n"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                path = await self._read_request(reader)
            except (asyncio.TimeoutError, ConnectionError, ValueError):
                return
            status, content_type, body = self._respond(path)
            if path == "/metrics" and status.startswith("200"):
                self.scrapes += 1
            payload = body.encode("utf-8")
            head = (
                f"HTTP/1.1 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n"
                "\r\n"
            )
            try:
                writer.write(head.encode("latin-1") + payload)
                await writer.drain()
            except (ConnectionError, RuntimeError):
                return
        finally:
            try:
                writer.close()
            except Exception:
                pass


async def scrape_openmetrics(host: str, port: int, path: str = "/metrics") -> str:
    """Fetch one exposition over raw asyncio (the test/CI scrape path —
    no HTTP client dependency).  Returns the response *body*."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            f"GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n".encode(
                "latin-1"
            )
        )
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
    if " 200 " not in status + " ":
        raise ConnectionError(f"scrape failed: {status}")
    return body.decode("utf-8")


__all__ = [
    "DEFAULT_SAMPLE_INTERVAL_NS",
    "LiveTelemetry",
    "TelemetryConfig",
    "TelemetryEndpoint",
    "scrape_openmetrics",
]

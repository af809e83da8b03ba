"""The live telemetry plane: sampler, scrape endpoint, zero overhead off.

The load-bearing test here is the byte-identity one: PR 4's
zero-overhead-off contract, restated for live mode, says a process
that never arms telemetry runs the identical event-log path — and a
process that *does* arm it (registries on both ends, snapshot sampler,
scrape endpoint) changes nothing about the event stream either.  With
a deterministic stepping clock per process, "changes nothing" is
checkable as literal file-byte equality, which also proves the hot
paths take no extra clock reads when instruments are attached.
"""

import asyncio
import re

import pytest

from repro.core.qos import QoSConfig, WEIGHTS_2_QOS
from repro.core.quota import QuotaReservation, QuotaServer
from repro.core.slo import SLO, SLOMap
from repro.live.client import AdmissionClient, RetryPolicy
from repro.live.events import EventLog, read_events
from repro.live.server import LiveServer
from repro.live.telemetry import (
    LiveTelemetry,
    TelemetryConfig,
    TelemetryEndpoint,
    scrape_openmetrics,
)
from repro.obs.metrics import OPENMETRICS_CONTENT_TYPE, MetricsRegistry
from repro.obs.slo import BurnRateConfig, SloMonitor, SloTarget

MS = 1_000_000


class SteppingClock:
    """Deterministic clock: every read advances by a fixed step, so a
    run's timestamps are a pure function of its clock-read sequence."""

    def __init__(self, step_ns: int = MS):
        self._now = 0
        self._step = step_ns

    def now_ns(self) -> int:
        self._now += self._step
        return self._now


def slo_map() -> SLOMap:
    return SLOMap({0: SLO(25 * MS, 90.0)}, QoSConfig(weights=WEIGHTS_2_QOS))


def run_sequential_calls(tmp_path, *, with_telemetry: bool):
    """A fixed sequence of sequential calls against an in-process
    server; returns (client log path, server log path)."""
    server_log_path = tmp_path / "server.jsonl"
    client_log_path = tmp_path / "client.jsonl"

    async def _main():
        # Separate clocks per "process", as in the real runtime; the
        # sampler gets its own too (wall-clock reads are side-effect
        # free, stepping-clock reads are not).
        server_clock = SteppingClock()
        client_clock = SteppingClock()
        registry = MetricsRegistry() if with_telemetry else None
        client_registry = MetricsRegistry() if with_telemetry else None
        with EventLog(server_log_path) as server_log, EventLog(
            client_log_path
        ) as client_log:
            server = LiveServer(
                server_clock,
                server_log,
                service_ns_per_mtu=1 * MS,
                queue_limit=16,
                registry=registry,
            )
            port = await server.start()
            client = AdmissionClient(
                "c0",
                "127.0.0.1",
                port,
                slo_map(),
                seed=1,
                clock=client_clock,
                log=client_log,
                registry=client_registry,
            )
            endpoint = sampler = None
            if with_telemetry:
                endpoint = TelemetryEndpoint(registry)
                await endpoint.start()
                sampler = LiveTelemetry(
                    client_registry,
                    SteppingClock(),
                    EventLog(tmp_path / "metrics.jsonl"),
                )
                await sampler.start()
            try:
                for qos in (0, 0, 1, 0, 1, 0):
                    await client.call(qos, payload_bytes=4096)
            finally:
                await client.aclose()
                await server.stop()
                if sampler is not None:
                    await sampler.stop()
                if endpoint is not None:
                    await endpoint.stop()

    asyncio.run(_main())
    return (
        normalize_ports(client_log_path.read_bytes()),
        normalize_ports(server_log_path.read_bytes()),
    )


def normalize_ports(raw: bytes) -> bytes:
    """Mask the one nondeterministic token: ephemeral TCP ports in
    ``conn`` records' peer addresses.  Everything else must match to
    the byte."""
    return re.sub(rb'"peer":"127\.0\.0\.1:\d+"', b'"peer":"127.0.0.1:0"', raw)


class TestZeroOverheadOff:
    def test_event_streams_byte_identical_with_telemetry_on(self, tmp_path):
        off_a = run_sequential_calls(tmp_path / "off-a", with_telemetry=False)
        off_b = run_sequential_calls(tmp_path / "off-b", with_telemetry=False)
        on = run_sequential_calls(tmp_path / "on", with_telemetry=True)
        # Sanity first: the scenario itself is deterministic — without
        # this, a byte mismatch below would be undiagnosable.
        assert off_a == off_b
        # The contract: arming the full telemetry plane (registries on
        # both ends, sampler, endpoint) leaves both event logs
        # byte-identical to the telemetry-off run.
        assert on == off_a

    def test_off_run_writes_no_metrics_sidecar(self, tmp_path):
        run_sequential_calls(tmp_path, with_telemetry=False)
        assert not (tmp_path / "metrics.jsonl").exists()


class TestClientInstruments:
    def test_issued_and_downgraded_share_the_requested_label(self, tmp_path):
        """A quota that denies QoS 0 downgrades every QoS-0 call to the
        scavenger class.  ``rpc_issued`` and ``rpc_downgraded`` both count
        it under the requested QoS, as the simulator does, so their ratio
        per label is the downgrade share."""
        registry = MetricsRegistry()

        async def _main():
            with EventLog(tmp_path / "server.jsonl") as server_log, EventLog(
                tmp_path / "client.jsonl"
            ) as client_log:
                server = LiveServer(
                    SteppingClock(), server_log, service_ns_per_mtu=1 * MS,
                    queue_limit=16,
                )
                port = await server.start()
                client = AdmissionClient(
                    "c0", "127.0.0.1", port, slo_map(), seed=1,
                    clock=SteppingClock(), log=client_log, registry=registry,
                )
                # QoS 0 is reserved to another tenant and nothing spills
                # over, so this client's QoS-0 calls are all denied.
                quota = QuotaServer(lambda: 0, {0: 1e9}, work_conserving=False)
                quota.reserve(QuotaReservation("other", 0, 1e9))
                client.engine.quota_server = quota
                try:
                    for _ in range(3):
                        result = await client.call(0, payload_bytes=4096)
                        assert result.ok and result.outcome.downgraded
                finally:
                    await client.aclose()
                    await server.stop()

        asyncio.run(_main())
        snapshot = registry.snapshot()
        assert snapshot["rpc_issued{qos=0}"] == 3
        assert snapshot["rpc_downgraded{qos=0}"] == 3
        assert snapshot["rpc_issued{qos=1}"] == 0


# ----------------------------------------------------------------------
# the scrape endpoint
# ----------------------------------------------------------------------
async def raw_get(port, path):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(
        f"GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".encode()
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    headers = {
        k.lower(): v.strip()
        for k, v in (line.split(":", 1) for line in lines[1:])
    }
    return lines[0], headers, body


def with_endpoint(scenario):
    async def _main():
        registry = MetricsRegistry()
        registry.counter("rpc_issued", qos=0).inc(5)
        registry.histogram("rnl_norm_ns", qos=0).observe(3e6)
        endpoint = TelemetryEndpoint(registry)
        port = await endpoint.start()
        try:
            return await scenario(registry, endpoint, port)
        finally:
            await endpoint.stop()

    return asyncio.run(_main())


class TestEndpoint:
    def test_metrics_serves_openmetrics(self):
        async def scenario(registry, endpoint, port):
            return await raw_get(port, "/metrics")

        status, headers, body = with_endpoint(scenario)
        assert status == "HTTP/1.1 200 OK"
        assert headers["content-type"] == OPENMETRICS_CONTENT_TYPE
        assert int(headers["content-length"]) == len(body)
        text = body.decode("utf-8")
        assert "# TYPE repro_rpc_issued counter" in text
        assert 'repro_rpc_issued_total{qos="0"} 5' in text
        assert text.endswith("# EOF\n")

    def test_query_string_is_ignored(self):
        async def scenario(registry, endpoint, port):
            return await scrape_openmetrics("127.0.0.1", port, "/metrics?x=1")

        assert "# EOF" in with_endpoint(scenario)

    def test_healthz_and_unknown_path(self):
        async def scenario(registry, endpoint, port):
            health = await raw_get(port, "/healthz")
            missing = await raw_get(port, "/nope")
            return health, missing

        (h_status, _, h_body), (m_status, _, _) = with_endpoint(scenario)
        assert h_status == "HTTP/1.1 200 OK" and h_body == b"ok\n"
        assert m_status == "HTTP/1.1 404 Not Found"

    def test_scrape_helper_raises_on_non_200(self):
        async def scenario(registry, endpoint, port):
            with pytest.raises(ConnectionError):
                await scrape_openmetrics("127.0.0.1", port, "/nope")
            return None

        with_endpoint(scenario)

    def test_counters_monotone_across_scrapes(self):
        async def scenario(registry, endpoint, port):
            first = await scrape_openmetrics("127.0.0.1", port)
            registry.counter("rpc_issued", qos=0).inc(3)
            second = await scrape_openmetrics("127.0.0.1", port)
            return first, second, endpoint.scrapes

        first, second, scrapes = with_endpoint(scenario)
        assert 'repro_rpc_issued_total{qos="0"} 5' in first
        assert 'repro_rpc_issued_total{qos="0"} 8' in second
        assert scrapes == 2

    def test_port_is_bound_and_stop_idempotent(self):
        async def scenario(registry, endpoint, port):
            assert endpoint.port == port > 0
            await endpoint.stop()
            await endpoint.stop()
            return None

        with_endpoint(scenario)


# ----------------------------------------------------------------------
# the snapshot sampler
# ----------------------------------------------------------------------
class TestSampler:
    def test_bounds_ride_along_only_on_change(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("rnl_norm_ns", qos=0).observe(1e6)
        log_path = tmp_path / "metrics.jsonl"
        sampler = LiveTelemetry(registry, SteppingClock(), EventLog(log_path))
        sampler.sample()
        sampler.sample()
        registry.histogram("queue_wait_ns", qos=1).observe(2e6)
        sampler.sample()
        records = read_events(log_path)
        assert [r["type"] for r in records] == ["metrics"] * 3
        assert "bounds" in records[0]
        assert "bounds" not in records[1]  # unchanged: elided
        assert "bounds" in records[2]  # new histogram label appeared
        assert "queue_wait_ns{qos=1}" in records[2]["bounds"]
        # Snapshots carry cumulative bucket counts for differencing.
        entry = records[0]["metrics"]["rnl_norm_ns{qos=0}"]
        assert entry["count"] == 1 and "buckets" in entry

    def test_stop_takes_final_snapshot_and_closes_log(self, tmp_path):
        log_path = tmp_path / "metrics.jsonl"

        async def _main():
            registry = MetricsRegistry()
            registry.counter("rpc_issued", qos=0).inc()
            sampler = LiveTelemetry(
                registry,
                SteppingClock(),
                EventLog(log_path),
                interval_ns=10 * MS,
            )
            await sampler.start()
            await asyncio.sleep(0.05)
            await sampler.stop()
            await sampler.stop()  # idempotent
            return sampler.samples

        samples = asyncio.run(_main())
        records = read_events(log_path)
        # At least the final stop() snapshot; the loop adds more.
        assert samples == len(records) >= 1

    def test_monitor_alerts_reach_both_logs(self, tmp_path):
        registry = MetricsRegistry()
        tracked = registry.counter("slo_tracked", qos=0)
        missed = registry.counter("slo_miss", qos=0)
        monitor = SloMonitor(
            [SloTarget(qos=0, allowed_miss_rate=0.1)],
            BurnRateConfig(short_window_ns=MS, long_window_ns=2 * MS),
        )
        event_log_path = tmp_path / "events.jsonl"
        metrics_log_path = tmp_path / "metrics.jsonl"
        sampler = LiveTelemetry(
            registry,
            SteppingClock(step_ns=MS),
            EventLog(metrics_log_path),
            event_log=EventLog(event_log_path),
            monitor=monitor,
        )
        sampler.sample()
        for _ in range(50):  # everything missing: burn 10x the budget
            tracked.inc()
            missed.inc()
            sampler.sample()
        event_alerts = [
            r for r in read_events(event_log_path) if r["type"] == "alert"
        ]
        metrics_alerts = [
            r for r in read_events(metrics_log_path) if r["type"] == "alert"
        ]
        assert event_alerts and event_alerts == metrics_alerts
        assert event_alerts[0]["state"] == "firing"
        assert event_alerts[0]["burn_short"] >= 2.0

    def test_interval_validation(self, tmp_path):
        with pytest.raises(ValueError):
            LiveTelemetry(
                MetricsRegistry(),
                SteppingClock(),
                EventLog(tmp_path / "m.jsonl"),
                interval_ns=0,
            )
        with pytest.raises(ValueError):
            TelemetryConfig(sample_interval_ns=-1)

    def test_config_is_picklable(self):
        import pickle

        config = TelemetryConfig(metrics_port=9100, sample_interval_ns=MS)
        assert pickle.loads(pickle.dumps(config)) == config

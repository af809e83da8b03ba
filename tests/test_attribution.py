"""RNL attribution: exact conservation, causal joins, and the diff gate.

The decomposition's core contract is *conservation*: the named segments
of every RPC sum to its measured completion latency exactly — integer
nanoseconds, no residual slop — with uncovered time booked as
propagation.  These tests pin that contract on the pure sweep, on a
full traced fast-profile fig08 simulation, and on an in-process live
client/server run with wire-propagated trace contexts; plus the
``report --diff`` gate that fails when latency shifts between causes.
"""

import asyncio

import pytest

from repro.analysis.attribution import (
    attribute_live,
    attribute_tracer,
    attribution_block,
    attribution_report,
    decompose,
    segment_bucket,
)
from repro.analysis.report import (
    DiffThresholds,
    diff_summaries,
    render_text,
    summarize,
)
from repro.core.qos import QoSConfig, WEIGHTS_2_QOS
from repro.core.slo import SLO, SLOMap
from repro.live.client import AdmissionClient, RetryPolicy
from repro.live.clock import WallClock
from repro.live.events import EventLog, read_events
from repro.live.server import FAULT_DROP, LiveServer

MS = 1_000_000


# ----------------------------------------------------------------------
# decompose: the boundary sweep
# ----------------------------------------------------------------------
class TestDecompose:
    def test_empty_window_yields_nothing(self):
        assert decompose([("a", 0, 10, 1)], 5, 5) == {}

    def test_uncovered_time_is_propagation(self):
        assert decompose([], 0, 100) == {"propagation": 100}

    def test_overlap_resolved_by_priority_and_conserved(self):
        segments = decompose(
            [("a", 0, 10, 1), ("b", 5, 15, 2)], 0, 20
        )
        assert segments == {"a": 5, "b": 10, "propagation": 5}
        assert sum(segments.values()) == 20

    def test_intervals_clip_to_the_window(self):
        segments = decompose([("a", -50, 5, 1), ("b", 8, 999, 1)], 0, 10)
        assert segments == {"a": 5, "propagation": 3, "b": 2}
        assert sum(segments.values()) == 10

    def test_equal_priority_first_interval_wins(self):
        # Deterministic tie-break: first-listed cover keeps the slice.
        assert decompose([("x", 0, 10, 1), ("y", 0, 10, 1)], 0, 10) == {
            "x": 10
        }

    def test_bucket_collapse(self):
        assert segment_bucket("queue:nic3") == "queueing"
        assert segment_bucket("queue_wait") == "queueing"
        assert segment_bucket("service") == "service"


# ----------------------------------------------------------------------
# simulated runs: fast-profile fig08, full causal coverage
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def traced_fig08():
    from repro.obs.scenarios import run_traced_figure

    return run_traced_figure("fig08", profile="fast")


class TestSimAttribution:
    def test_every_segment_sum_matches_measured_latency(self, traced_fig08):
        rpcs = attribute_tracer(traced_fig08.tracer)
        assert len(rpcs) > 100
        for rpc in rpcs:
            assert sum(rpc.segments.values()) == rpc.latency_ns

    def test_every_packet_span_resolves_to_exactly_one_rpc(self, traced_fig08):
        tracer = traced_fig08.tracer
        rpc_ids = {span.rpc_id for span in tracer.rpc_spans}
        for span in tracer.queue_spans:
            assert span.rpc_id in rpc_ids
        for span in tracer.tx_spans:
            assert span.rpc_id in rpc_ids

    def test_block_shares_sum_to_one_per_qos(self, traced_fig08):
        block = attribution_block(attribute_tracer(traced_fig08.tracer))
        assert block["rpcs"] > 0
        for qos_block in block["per_qos"].values():
            assert sum(qos_block["shares"].values()) == pytest.approx(1.0)

    def test_report_renders_shares_and_waterfall(self, traced_fig08):
        text = attribution_report(
            attribute_tracer(traced_fig08.tracer), top_k=2
        )
        assert "RNL attribution" in text
        assert "queueing" in text
        assert "slowest exemplars" in text

    def test_series_document_carries_attribution(self, traced_fig08):
        series = traced_fig08.series()
        block = series["attribution"]
        assert block["rpcs"] > 0
        summary = summarize({"points": [], "series": series})
        assert any(
            "attribution_shares" in qos for qos in summary["qos"].values()
        )


# ----------------------------------------------------------------------
# live runs: wire-propagated contexts join both logs into one trace
# ----------------------------------------------------------------------
#: Quick backoff so the forced-retry scenario stays under a second.
_RETRY = RetryPolicy(
    max_attempts=3,
    deadline_ns=2_000 * MS,
    attempt_timeout_ns=60 * MS,
    backoff_base_ns=20 * MS,
    backoff_cap_ns=80 * MS,
    jitter=0.25,
)


def _slo_map() -> SLOMap:
    return SLOMap({0: SLO(25 * MS, 90.0)}, QoSConfig(weights=WEIGHTS_2_QOS))


def _run_traced_stack(tmp_path, scenario, *, on_request=None):
    async def _main():
        clock = WallClock()
        with EventLog(tmp_path / "server.jsonl") as server_log, EventLog(
            tmp_path / "client.jsonl"
        ) as client_log:
            server = LiveServer(
                clock,
                server_log,
                service_ns_per_mtu=1 * MS,
                on_request=on_request,
            )
            port = await server.start()
            client = AdmissionClient(
                "c0",
                "127.0.0.1",
                port,
                _slo_map(),
                seed=1,
                clock=clock,
                log=client_log,
                retry=_RETRY,
                trace=True,
            )
            try:
                return await scenario(server, client, clock)
            finally:
                await client.aclose()
                await server.stop()

    return asyncio.run(_main())


class TestLiveAttribution:
    def _attributions(self, tmp_path, scenario, *, on_request=None):
        _run_traced_stack(tmp_path, scenario, on_request=on_request)
        client_records = read_events(tmp_path / "client.jsonl")
        server_records = read_events(tmp_path / "server.jsonl")
        return client_records, server_records

    def test_conservation_and_cross_process_join(self, tmp_path):
        async def scenario(server, client, clock):
            for _ in range(3):
                result = await client.call(0, payload_bytes=4096)
                assert result.ok

        client_records, server_records = self._attributions(
            tmp_path, scenario
        )
        rpcs = attribute_live([client_records], server_records)
        assert len(rpcs) == 3
        for rpc in rpcs:
            # The conservation contract, on real wall-clock numbers.
            assert sum(rpc.segments.values()) == rpc.latency_ns
            # Server-side segments joined across the process boundary.
            # Queue residency (higher priority) may shave the dispatch
            # sliver off the virtual-schedule service interval, so the
            # bound is near-but-not-exactly the charged service time.
            assert rpc.segments["service"] >= 0.9 * MS
        # Every server-side record's trace id names a client-side RPC.
        client_trace_ids = {
            r["trace_id"]
            for r in client_records
            if r.get("type") == "rpc" and "trace_id" in r
        }
        server_trace_ids = {
            r["trace_id"] for r in server_records if "trace_id" in r
        }
        assert server_trace_ids
        assert server_trace_ids <= client_trace_ids

    def test_forced_retry_books_backoff_time(self, tmp_path):
        dropped = []

        def drop_first(request):
            if not dropped:
                dropped.append(request.request_id)
                return FAULT_DROP
            return None

        async def scenario(server, client, clock):
            result = await client.call(0, payload_bytes=4096)
            assert result.ok
            assert result.attempts == 2

        client_records, server_records = self._attributions(
            tmp_path, scenario, on_request=drop_first
        )
        (rpc,) = attribute_live([client_records], server_records)
        assert sum(rpc.segments.values()) == rpc.latency_ns
        # The timeout + backoff of the swallowed first attempt shows up
        # as its own named cause, not smeared into propagation.
        assert rpc.segments.get("retry_backoff", 0) >= int(
            _RETRY.backoff_base_ns * (1 - _RETRY.jitter)
        )
        assert "service" in rpc.segments


# ----------------------------------------------------------------------
# the diff gate: latency moving between causes must breach
# ----------------------------------------------------------------------
def _summary_with_shares(shares):
    return {
        "schema": 1,
        "experiment": "live",
        "run_id": "synthetic",
        "profile": "live",
        "run_digest_hex": None,
        "checks_passed": True,
        "points": [{"params": {"seed": 1}, "row": {"calls": 10}}],
        "qos": {"0": {"slo_miss_rate": 0.1, "attribution_shares": shares}},
    }


class TestAttributionDiffGate:
    BASE = {"queueing": 0.60, "retry_backoff": 0.10, "service": 0.30}

    def test_share_shift_beyond_threshold_breaches(self):
        # 15 points of queueing share flowed into retry backoff while
        # everything else (totals, miss rate) stayed put.
        shifted = {"queueing": 0.45, "retry_backoff": 0.25, "service": 0.30}
        result = diff_summaries(
            _summary_with_shares(self.BASE), _summary_with_shares(shifted)
        )
        assert not result.ok
        assert any("attribution share" in b for b in result.breaches)

    def test_new_segment_appearing_breaches(self):
        # A cause absent from the baseline reads as a 0.0 share there.
        grown = {
            "queueing": 0.48,
            "retry_backoff": 0.10,
            "service": 0.30,
            "dispatch": 0.12,
        }
        result = diff_summaries(
            _summary_with_shares(self.BASE), _summary_with_shares(grown)
        )
        assert not result.ok

    def test_shift_within_threshold_passes(self):
        nudged = {"queueing": 0.55, "retry_backoff": 0.15, "service": 0.30}
        result = diff_summaries(
            _summary_with_shares(self.BASE), _summary_with_shares(nudged)
        )
        assert result.ok

    def test_threshold_is_configurable(self):
        nudged = {"queueing": 0.55, "retry_backoff": 0.15, "service": 0.30}
        result = diff_summaries(
            _summary_with_shares(self.BASE),
            _summary_with_shares(nudged),
            DiffThresholds(max_attribution_shift=0.02),
        )
        assert not result.ok


def test_render_text_includes_attribution_panel(traced_fig08):
    doc = {
        "experiment": "fig08",
        "run_id": "t",
        "profile": "fast",
        "checks": {"passed": True},
        "points": [],
        "series": traced_fig08.series(),
    }
    text = render_text(doc)
    assert "RNL attribution" in text

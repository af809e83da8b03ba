"""Observability layer: span completeness, histogram math, exporters.

The contract under test has three legs:

* **completeness** — with tracing on, every RPC the metrics collector
  counted has exactly one span, and the spans reconstruct the same
  aggregate RNL sums the collector computed independently;
* **zero overhead off** — a traced run and a plain run of the same
  scenario produce bit-identical determinism digests (the tracer is
  read-only with respect to simulation state);
* **export fidelity** — the Chrome ``trace_event`` document is
  schema-valid (Perfetto-loadable) and the JSONL record stream matches
  the tracer's in-memory records one-for-one.
"""

import json
import random

import pytest

from repro.core.admission import AdmissionParams
from repro.core.qos import Priority
from repro.core.slo import SLOMap
from repro.net.topology import build_two_tier, wfq_factory
from repro.obs.export import (
    chrome_trace,
    queue_residency_report,
    rpc_report,
    trace_report,
    write_chrome_trace,
    write_jsonl,
    write_metrics_series,
)
from repro.obs.metrics import Histogram, MetricsRegistry, exponential_bounds
from repro.obs.profile import SimProfiler
from repro.obs.runtime import (
    ObsContext,
    activate,
    active,
    active_tracer,
    deactivate,
    trace_enabled_by_env,
)
from repro.obs.trace import (
    AdmissionEvent,
    DropEvent,
    FlowCwndSample,
    FlowRetransmit,
    QueueSpan,
    Tracer,
    TxSpan,
    queue_residency,
)
from repro.rpc.message import Rpc
from repro.rpc.sizes import FixedSize
from repro.rpc.stack import MetricsCollector, RpcStack
from repro.rpc.workload import OpenLoopSource, steady_pattern
from repro.sim.engine import Simulator, ns_from_ms, ns_from_us
from repro.stats.digest import completed_rpc_digest, digest_hex
from repro.stats.summary import percentile as exact_percentile
from repro.transport.reliable import TransportConfig, TransportEndpoint
from repro.transport.swift import SwiftCC, SwiftParams


@pytest.fixture(autouse=True)
def _obs_clean():
    """Never leak an active observability context between tests."""
    deactivate()
    yield
    deactivate()


def _run_two_tier(traced: bool, duration_ms: float = 4.0, seed: int = 9):
    """The overloaded two-tier scenario, optionally under tracing.

    Same wiring as test_two_tier_overload.run_two_tier (admission on):
    QoS_h alone oversubscribes the ToR uplinks, so the run exercises
    downgrades, AIMD decreases, and deep queue residency in the core.
    """
    context = None
    if traced:
        context = activate(ObsContext.full())
    try:
        sim = Simulator()
        net = build_two_tier(
            sim,
            num_tors=2,
            hosts_per_tor=3,
            scheduler_factory=wfq_factory((8, 4, 1)),
            line_rate_bps=100e9,
            uplink_oversubscription=2.0,
        )
        slo_map = SLOMap.for_three_levels(
            ns_from_us(15), ns_from_us(25), target_percentile=99.0
        )
        config = TransportConfig(
            cc_factory=lambda: SwiftCC(SwiftParams(target_delay_ns=ns_from_us(25))),
            ack_bypass=True,
        )
        endpoints = [TransportEndpoint(sim, h, config) for h in net.hosts]
        for a in endpoints:
            for b in endpoints:
                if a is not b:
                    a.register_peer(b)
        metrics = MetricsCollector()
        stacks = [
            RpcStack(sim, net.hosts[i], endpoints[i], slo_map,
                     AdmissionParams(alpha=0.05), metrics, seed=seed)
            for i in range(net.num_hosts)
        ]
        for i in range(3):
            OpenLoopSource(
                sim,
                stacks[i],
                [3, 4, 5],
                {Priority.PC: 0.8, Priority.BE: 0.2},
                FixedSize(32 * 1024),
                steady_pattern(0.8),
                rng=random.Random(seed * 13 + i),
                stop_ns=ns_from_ms(duration_ms),
            )
        sim.run(until=ns_from_ms(duration_ms))
    finally:
        if traced:
            deactivate()
    return context, metrics


@pytest.fixture(scope="module")
def traced_run():
    deactivate()  # module fixtures run outside the autouse guard's scope
    try:
        return _run_two_tier(traced=True)
    finally:
        deactivate()


@pytest.fixture(scope="module")
def short_traced_run():
    """The same scenario over 0.5 ms, for the tests that render a whole
    Chrome trace: rendering cost grows with the record count."""
    deactivate()
    try:
        return _run_two_tier(traced=True, duration_ms=0.5)
    finally:
        deactivate()


# ----------------------------------------------------------------------
# Span completeness
# ----------------------------------------------------------------------
def test_rpc_spans_are_complete_against_collector(traced_run):
    context, metrics = traced_run
    tracer = context.tracer
    spans = tracer.rpc_spans

    assert len(spans) == metrics.issued_count > 0
    completed = [s for s in spans if s.completed]
    assert len(completed) == len(metrics.completed) > 0
    assert sum(1 for s in spans if s.downgraded) == metrics.downgrades > 0
    assert sum(1 for s in spans if s.terminated) == metrics.terminated

    # Spans independently reconstruct the collector's per-QoS sums.
    def per_qos(records):
        rnl_by_qos = {}
        count_by_qos = {}
        for record in records:
            qos = record.qos_run
            rnl_by_qos[qos] = rnl_by_qos.get(qos, 0) + record.rnl_ns
            count_by_qos[qos] = count_by_qos.get(qos, 0) + 1
        return rnl_by_qos, count_by_qos

    for span in completed:
        assert span.rnl_ns is not None and span.rnl_ns > 0
        assert span.completed_ns >= span.issued_ns
    assert per_qos(completed) == per_qos(metrics.completed)

    # Downgraded RPCs run below their requested class and, because the
    # requested class carries an SLO, always count as verdict misses.
    for span in spans:
        if span.downgraded:
            assert span.qos_run > span.qos_requested
            assert span.slo_met is not True


def test_queue_and_tx_spans_cover_the_fabric(traced_run):
    context, _metrics = traced_run
    tracer = context.tracer

    assert tracer.queue_spans, "overloaded run must record queue residency"
    # Every dequeue starts a serialization, so the streams pair up.
    assert len(tracer.tx_spans) == len(tracer.queue_spans)

    for span in tracer.queue_spans:
        assert span.dequeued_ns >= span.enqueued_ns >= 0
        assert span.residency_ns == span.dequeued_ns - span.enqueued_ns
        assert span.size_bytes > 0

    nodes = {span.node for span in tracer.queue_spans}
    # Host NICs and the oversubscribed core both show up.
    assert any(node.startswith("nic") for node in nodes)
    assert any(not node.startswith("nic") for node in nodes)

    # The aggregate view sums exactly over the raw spans.
    agg = queue_residency(tracer.queue_spans)
    assert sum(count for count, _t, _m in agg.values()) == len(tracer.queue_spans)
    assert sum(total for _c, total, _m in agg.values()) == sum(
        s.residency_ns for s in tracer.queue_spans
    )


def test_admission_events_record_aimd_decreases(traced_run):
    context, _metrics = traced_run
    events = context.tracer.admission_events
    assert events, "persistent QoS_h overload must trigger AIMD adjustments"
    assert {e.kind for e in events} <= {"increase", "decrease"}
    assert any(e.kind == "decrease" for e in events)
    for event in events:
        assert 0.0 <= event.p_admit <= 1.0
        assert "->" in event.channel


# ----------------------------------------------------------------------
# Zero overhead off: traced and plain runs are bit-identical
# ----------------------------------------------------------------------
def test_traced_run_digest_matches_plain_run(traced_run):
    _context, traced_metrics = traced_run
    _none, plain_metrics = _run_two_tier(traced=False)
    assert digest_hex(completed_rpc_digest(traced_metrics)) == digest_hex(
        completed_rpc_digest(plain_metrics)
    )


# ----------------------------------------------------------------------
# Histogram bucket math vs exact quantiles
# ----------------------------------------------------------------------
def test_histogram_quantiles_within_bucket_resolution():
    rng = random.Random(42)
    samples = [rng.lognormvariate(9.0, 0.8) for _ in range(5000)]
    hist = Histogram("rnl")
    for s in samples:
        hist.observe(s)

    assert hist.count == len(samples)
    assert hist.mean == pytest.approx(sum(samples) / len(samples))
    # Extremes are exact (clamped to observed min/max).
    assert hist.quantile(0.0) == pytest.approx(min(samples))
    assert hist.quantile(1.0) == pytest.approx(max(samples))
    # Interior quantiles are within one bucket's relative width (~33%
    # at 8 buckets/decade) of the exact order statistic.
    for pctl in (50.0, 90.0, 99.0, 99.9):
        exact = exact_percentile(samples, pctl)
        assert hist.percentile(pctl) == pytest.approx(exact, rel=0.35)

    summary = hist.summary()
    assert summary["count"] == float(len(samples))
    assert summary["min"] == pytest.approx(min(samples))
    assert summary["max"] == pytest.approx(max(samples))
    assert summary["p50"] <= summary["p90"] <= summary["p99"] <= summary["p999"]


def test_histogram_edge_cases_and_validation():
    empty = Histogram("empty")
    assert empty.quantile(0.5) == 0.0
    assert empty.summary() == {
        "count": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0,
        "p50": 0.0, "p90": 0.0, "p99": 0.0, "p999": 0.0,
    }
    with pytest.raises(ValueError):
        empty.quantile(-0.01)
    with pytest.raises(ValueError):
        empty.quantile(1.01)
    with pytest.raises(ValueError):
        Histogram("bad", bounds=(10.0, 5.0))
    with pytest.raises(ValueError):
        exponential_bounds(lo=0.0)
    with pytest.raises(ValueError):
        exponential_bounds(lo=10.0, hi=5.0)
    with pytest.raises(ValueError):
        exponential_bounds(per_decade=0)

    # Values beyond the last edge land in the overflow bucket and the
    # quantile stays clamped to the observed max.
    hist = Histogram("overflow", bounds=(1.0, 10.0))
    for value in (0.5, 5.0, 1e6):
        hist.observe(value)
    assert hist.counts[-1] == 1
    assert hist.quantile(1.0) == pytest.approx(1e6)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
def test_registry_get_or_create_and_snapshot():
    reg = MetricsRegistry()
    c = reg.counter("rpc_issued", qos=0)
    c.inc()
    c.inc(2)
    assert reg.counter("rpc_issued", qos=0) is c
    assert reg.counter("rpc_issued", qos=1) is not c
    reg.gauge("p_admit", qos=0, node="h0").set(0.25)
    reg.histogram("rnl_norm_ns", qos=0).observe(1500.0)

    snap = reg.snapshot()
    assert snap["rpc_issued{qos=0}"] == 3
    assert snap["rpc_issued{qos=1}"] == 0
    assert snap["p_admit{qos=0,node=h0}"] == 0.25
    hist_summary = snap["rnl_norm_ns{qos=0}"]
    assert hist_summary["count"] == 1.0
    assert hist_summary["p50"] == pytest.approx(1500.0, rel=0.35)


def test_registry_sampler_snapshots_at_sim_cadence():
    reg = MetricsRegistry()
    sim = Simulator()
    counter = reg.counter("events")
    sim.post(1500, counter.inc)  # lands between the 1st and 2nd ticks
    reg.install_sampler(sim, cadence_ns=1000, until_ns=5000)
    sim.run(until=10_000)

    assert [t for t, _snap in reg.series] == [1000, 2000, 3000, 4000, 5000]
    values = [snap["events"] for _t, snap in reg.series]
    assert values == [0, 1, 1, 1, 1]

    with pytest.raises(ValueError):
        reg.install_sampler(sim, cadence_ns=0)


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
def test_profiler_attributes_every_event(traced_run):
    context, _metrics = traced_run
    profiler = context.profiler
    assert profiler.total_events > 0
    rows = profiler.rows()
    assert sum(r.calls for r in rows) == profiler.total_events
    assert abs(sum(r.share for r in rows) - 1.0) < 1e-9
    # Cost-ordered, and the known hot handlers are attributed by name.
    assert rows == sorted(rows, key=lambda r: (-r.total_s, r.name))
    names = {r.name for r in rows}
    # The two-tier overload backlogs its ports, so their line-free
    # wakes (the handler that replaced Port._finish_transmit) show up.
    assert any("Port._start_next" in n for n in names)
    report = profiler.report(top=3)
    assert "profile:" in report and rows[0].name in report


def test_profiler_standalone_counts_match_engine():
    profiler = SimProfiler()
    sim = Simulator(profiler=profiler)
    hits = []
    for i in range(5):
        sim.post(i * 10, hits.append, i)
    sim.run()
    assert len(hits) == 5
    assert profiler.total_events == sim.events_processed == 5
    assert SimProfiler().report() == "profile: no events recorded"


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
def test_chrome_trace_schema(short_traced_run):
    context, _metrics = short_traced_run
    doc = chrome_trace(context.tracer, context.registry)
    json.dumps(doc)  # must be serializable as-is

    assert doc["displayTimeUnit"] == "ns"
    events = doc["traceEvents"]
    assert {e["ph"] for e in events} <= {"X", "i", "C", "M", "s", "f"}

    named_pids = {
        e["pid"]: e["args"]["name"]
        for e in events
        if e["ph"] == "M" and e["name"] == "process_name"
    }
    assert named_pids[1] == "rpcs"
    for event in events:
        assert event["pid"] in named_pids
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert "tid" in event and "name" in event
        if event["ph"] == "i":
            assert event["s"] == "t"

    # Every record kind made it into the stream.
    cats = {e.get("cat") for e in events if e["ph"] != "M"}
    assert {"rpc", "queue", "tx", "admission"} <= cats
    admission_counters = [
        e for e in events if e["ph"] == "C" and e["cat"] == "admission"
    ]
    assert len(admission_counters) == len(context.tracer.admission_events)
    for counter in admission_counters:
        assert 0.0 <= counter["args"]["p_admit"] <= 1.0
    # Per-flow transport spans: one cwnd and one rtt counter per ACK
    # sample, under their own "transport" process.
    if context.tracer.flow_cwnd_samples:
        transport = [e for e in events if e.get("cat") == "transport"]
        cwnd = [e for e in transport if e["ph"] == "C" and "cwnd" in e["args"]]
        rtt = [e for e in transport if e["ph"] == "C" and "rtt_us" in e["args"]]
        assert len(cwnd) == len(context.tracer.flow_cwnd_samples)
        assert len(rtt) == len(context.tracer.flow_cwnd_samples)
        assert "transport" in named_pids.values()


def test_chrome_trace_flow_events_join_children_to_rpcs(traced_run):
    context, _metrics = traced_run
    tracer = context.tracer
    doc = chrome_trace(tracer)
    events = doc["traceEvents"]

    starts = [e for e in events if e["ph"] == "s"]
    finishes = [e for e in events if e["ph"] == "f"]
    # One arrow per causally-linked child slice: paired s/f with equal
    # ids; every start sits on the rpcs process, every finish elsewhere.
    assert starts and len(starts) == len(finishes)
    assert {e["id"] for e in starts} == {e["id"] for e in finishes}
    assert all(e["pid"] == 1 for e in starts)
    assert all(e["bp"] == "e" for e in finishes)
    completed = {s.rpc_id for s in tracer.rpc_spans if s.completed}
    for event in starts:
        rpc_id = int(str(event["id"]).split(":")[0])
        assert rpc_id in completed

    # Child slices carry the causal args that make the arrows greppable.
    queue_events = [e for e in events if e.get("cat") == "queue"]
    linked = [e for e in queue_events if "trace_id" in e["args"]]
    assert linked
    for event in linked:
        assert event["args"]["trace_id"] == f"{event['args']['rpc_id']:032x}"


def test_chrome_trace_ordering_is_deterministic(short_traced_run):
    context, _metrics = short_traced_run
    doc_a = chrome_trace(context.tracer)
    doc_b = chrome_trace(context.tracer)
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
    events = doc_a["traceEvents"]
    meta_len = sum(1 for e in events if e["ph"] == "M")
    assert all(e["ph"] == "M" for e in events[:meta_len])
    body = events[meta_len:]
    keys = [
        (e.get("ts", 0.0), e["pid"], str(e.get("tid", "")), e["name"])
        for e in body
    ]
    assert keys == sorted(keys)


def test_export_writers_round_trip(tmp_path, short_traced_run):
    context, _metrics = short_traced_run
    tracer = context.tracer

    trace_path = write_chrome_trace(tmp_path / "t" / "run.trace.json", tracer)
    with open(trace_path) as fh:
        doc = json.load(fh)
    assert doc["traceEvents"]

    jsonl_path = write_jsonl(tmp_path / "run.spans.jsonl", tracer)
    records = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    by_type = {}
    for record in records:
        by_type[record["type"]] = by_type.get(record["type"], 0) + 1
    assert by_type["rpc"] == len(tracer.rpc_spans)
    assert by_type["queue"] == len(tracer.queue_spans)
    assert by_type["tx"] == len(tracer.tx_spans)
    assert by_type["admission"] == len(tracer.admission_events)

    context.registry.series.append((0, context.registry.snapshot()))
    series_path = write_metrics_series(tmp_path / "run.metrics.jsonl", context.registry)
    lines = series_path.read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert first["t_ns"] == 0 and isinstance(first["metrics"], dict)
    context.registry.series.pop()


def test_write_jsonl_lines_are_byte_stable(tmp_path):
    """One literal line per span type: field order, the default
    ``", "``/``": "`` separators and the derived trace context (absent for
    an unbound span) are what downstream tooling greps."""
    tracer = Tracer()
    rpc = Rpc(
        src=1, dst=2, priority=Priority.PC, payload_bytes=4096, issued_ns=100,
        rpc_id=5, qos_requested=0, qos_run=1, completed_ns=900, rnl_ns=800,
    )
    rpc.slo_met = False
    tracer._rpc_spans[5] = rpc
    tracer.queue_spans += [
        QueueSpan(node="tor0", qos=1, enqueued_ns=110, dequeued_ns=150,
                  size_bytes=4160, kind=0, rpc_id=5),
        QueueSpan(node="tor0", qos=1, enqueued_ns=110, dequeued_ns=150,
                  size_bytes=64, kind=1),
    ]
    tracer.tx_spans.append(
        TxSpan(node="tor0", qos=1, start_ns=150, duration_ns=333,
               size_bytes=4160, rpc_id=5)
    )
    tracer.drops.append(
        DropEvent(node="tor0", qos=1, time_ns=160, size_bytes=4160,
                  reason="refused", rpc_id=5)
    )
    tracer.admission_events.append(
        AdmissionEvent(time_ns=900, channel="1->2", qos=0, p_admit=0.99,
                       kind="decrease", rpc_id=5)
    )
    tracer.flow_cwnd_samples.append(
        FlowCwndSample(time_ns=500, flow="1->2/qos1", cwnd=2.5, rtt_ns=400)
    )
    tracer.flow_retransmits.append(
        FlowRetransmit(time_ns=700, flow="1->2/qos1", seq=3, msg_id=8, rpc_id=5)
    )
    trace = '"trace_id": "00000000000000000000000000000005"'
    causal = ", " + trace + ', "parent_id": "0000000000000005"}'
    lines = write_jsonl(tmp_path / "spans.jsonl", tracer).read_text().splitlines()
    assert lines == [
        '{"type": "rpc", "rpc_id": 5, "src": 1, "dst": 2, "qos_requested": 0, '
        '"qos_run": 1, "downgraded": true, "issued_ns": 100, "payload_bytes": 4096, '
        '"size_mtus": 1, "completed_ns": 900, "rnl_ns": 800, "slo_met": false, '
        '"terminated": false, ' + trace + ', "span_id": "0000000000000005"}',
        '{"type": "queue", "node": "tor0", "qos": 1, "enqueued_ns": 110, '
        '"dequeued_ns": 150, "size_bytes": 4160, "kind": 0, "rpc_id": 5' + causal,
        '{"type": "queue", "node": "tor0", "qos": 1, "enqueued_ns": 110, '
        '"dequeued_ns": 150, "size_bytes": 64, "kind": 1, "rpc_id": 0}',
        '{"type": "tx", "node": "tor0", "qos": 1, "start_ns": 150, '
        '"duration_ns": 333, "size_bytes": 4160, "rpc_id": 5' + causal,
        '{"type": "drop", "node": "tor0", "qos": 1, "time_ns": 160, '
        '"size_bytes": 4160, "reason": "refused", "rpc_id": 5' + causal,
        '{"type": "admission", "time_ns": 900, "channel": "1->2", "qos": 0, '
        '"p_admit": 0.99, "kind": "decrease", "rpc_id": 5' + causal,
        '{"type": "flow", "time_ns": 500, "flow": "1->2/qos1", "cwnd": 2.5, '
        '"rtt_ns": 400}',
        '{"type": "flow_retransmit", "time_ns": 700, "flow": "1->2/qos1", '
        '"seq": 3, "msg_id": 8, "rpc_id": 5' + causal,
    ]


def test_text_reports_name_top_contributors(traced_run):
    context, metrics = traced_run
    tracer = context.tracer

    residency = queue_residency_report(tracer, top_k=2)
    assert "queue residency by QoS" in residency
    assert "QoS 0" in residency
    # The report names concrete queues with their share of residency.
    assert any(node in residency for node in {s.node for s in tracer.queue_spans})

    rpcs = rpc_report(tracer)
    assert f"{metrics.issued_count} issued" in rpcs
    assert "downgraded" in rpcs and "p_admit adjustments" in rpcs

    full = trace_report(tracer, context.profiler, top_k=3)
    assert residency.splitlines()[0] in full
    assert "profile:" in full

    assert queue_residency_report(Tracer()) == (
        "queue residency: no queue spans recorded"
    )
    assert rpc_report(Tracer()) == "rpcs: no spans recorded"


# ----------------------------------------------------------------------
# Runtime opt-in
# ----------------------------------------------------------------------
def test_env_var_activates_tracing_lazily(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert trace_enabled_by_env()
    ctx = active()
    assert ctx is not None and isinstance(active_tracer(), Tracer)
    deactivate()

    for falsey in ("", "0", "false", "no", "off", " OFF "):
        monkeypatch.setenv("REPRO_TRACE", falsey)
        assert not trace_enabled_by_env()
        assert active() is None and active_tracer() is None

    monkeypatch.delenv("REPRO_TRACE")
    assert active() is None


def test_activate_binds_components_at_construction(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    explicit = ObsContext(tracer=Tracer())  # tracer only, no profiler
    assert activate(explicit) is explicit
    assert active_tracer() is explicit.tracer
    assert active().profiler is None
    sim = Simulator()
    assert sim.profiler is None  # engine picked the plain run loop
    deactivate()
    assert active() is None


# ----------------------------------------------------------------------
# Wall-clock-span histogram accuracy + OpenMetrics exposition
# ----------------------------------------------------------------------
def test_histogram_percentiles_vs_exact_order_statistics_us_to_s_span():
    """Live attempt latencies span five decades (fast loopback RPCs in
    the tens of µs, queued ones in ms, deadline stragglers near 1 s);
    the fixed log bounds must hold their one-bucket accuracy bound
    (~33% at 8/decade) across that whole span, per mode and mixed."""
    rng = random.Random(7)
    modes = [
        lambda: rng.uniform(20e3, 80e3),        # 20-80 us: loopback RTT
        lambda: rng.lognormvariate(16.1, 0.5),  # ~10 ms: queued behind work
        lambda: rng.uniform(0.5e9, 1.0e9),      # 0.5-1 s: deadline stragglers
    ]
    weights = (0.70, 0.25, 0.05)
    samples = []
    for _ in range(20_000):
        pick = rng.random()
        mode = 0 if pick < weights[0] else (1 if pick < weights[0] + weights[1] else 2)
        samples.append(modes[mode]())

    hist = Histogram("attempt_latency_ns")
    for s in samples:
        hist.observe(s)

    assert hist.quantile(0.0) == pytest.approx(min(samples))
    assert hist.quantile(1.0) == pytest.approx(max(samples))
    # 10^(1/8) bucket ratio: interpolation error is bounded by one
    # bucket's relative width at every interior percentile, including
    # the ones that land inside each mode and in the gaps between them.
    for pctl in (1.0, 10.0, 25.0, 50.0, 69.0, 75.0, 90.0, 95.0, 99.0, 99.9):
        exact = exact_percentile(samples, pctl)
        assert hist.percentile(pctl) == pytest.approx(exact, rel=0.34), pctl
    # Percentiles are monotone in the percentile argument.
    grid = [hist.percentile(p) for p in range(0, 101, 5)]
    assert grid == sorted(grid)


def test_openmetrics_exposition_format():
    """Golden-format assertions for the scrape body: metadata lines,
    counter suffix, escaped label values, cumulative buckets, EOF."""
    from repro.obs.metrics import OPENMETRICS_CONTENT_TYPE, render_openmetrics

    reg = MetricsRegistry()
    reg.counter("rpc_issued", qos=0).inc(7)
    reg.counter("rpc_issued", qos=1).inc(2)
    reg.gauge("p_admit", qos=0, node='c0->srv "odd"\\path\nx').set(0.55)
    hist = reg.histogram("rnl_norm_ns", qos=0, bounds=(100.0, 1000.0))
    for value in (50.0, 500.0, 5000.0):
        hist.observe(value)

    text = render_openmetrics(reg)
    lines = text.splitlines()

    assert "version=1.0.0" in OPENMETRICS_CONTENT_TYPE
    assert text.endswith("# EOF\n")
    assert lines[-1] == "# EOF"

    # Every family announces TYPE then HELP, exactly once.
    assert "# TYPE repro_rpc_issued counter" in lines
    assert "# TYPE repro_p_admit gauge" in lines
    assert "# TYPE repro_rnl_norm_ns histogram" in lines
    for family in ("repro_rpc_issued", "repro_p_admit", "repro_rnl_norm_ns"):
        type_lines = [l for l in lines if l.startswith(f"# TYPE {family} ")]
        help_lines = [l for l in lines if l.startswith(f"# HELP {family} ")]
        assert len(type_lines) == 1 and len(help_lines) == 1
        assert lines.index(type_lines[0]) < lines.index(help_lines[0])

    # Counters get the mandated _total suffix and keep label order.
    assert 'repro_rpc_issued_total{qos="0"} 7' in lines
    assert 'repro_rpc_issued_total{qos="1"} 2' in lines

    # Label values escape backslash, double quote, and newline.
    gauge_line = next(l for l in lines if l.startswith("repro_p_admit{"))
    assert '\\"odd\\"' in gauge_line
    assert "\\\\path" in gauge_line
    assert "\\n" in gauge_line and "\n" not in gauge_line
    assert gauge_line.endswith(" 0.55")

    # Histogram buckets are cumulative, end at le="+Inf" == _count, and
    # _sum carries the total.
    buckets = [l for l in lines if l.startswith("repro_rnl_norm_ns_bucket")]
    assert buckets == [
        'repro_rnl_norm_ns_bucket{qos="0",le="100"} 1',
        'repro_rnl_norm_ns_bucket{qos="0",le="1000"} 2',
        'repro_rnl_norm_ns_bucket{qos="0",le="+Inf"} 3',
    ]
    assert 'repro_rnl_norm_ns_count{qos="0"} 3' in lines
    assert 'repro_rnl_norm_ns_sum{qos="0"} 5550' in lines


def test_openmetrics_rendering_is_read_only_and_monotone():
    from repro.obs.metrics import render_openmetrics

    reg = MetricsRegistry()
    counter = reg.counter("rpc_issued", qos=0)
    counter.inc(3)
    first = render_openmetrics(reg)
    assert render_openmetrics(reg) == first  # no state perturbed
    counter.inc()
    second = render_openmetrics(reg)
    assert 'repro_rpc_issued_total{qos="0"} 3' in first
    assert 'repro_rpc_issued_total{qos="0"} 4' in second


def test_openmetrics_sanitizes_hostile_family_names():
    from repro.obs.metrics import render_openmetrics

    reg = MetricsRegistry()
    reg.counter("2weird-name.x").inc()
    text = render_openmetrics(reg, prefix="")
    assert "# TYPE _2weird_name_x counter" in text
    assert "_2weird_name_x_total 1" in text

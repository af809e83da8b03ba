"""Unit tests for the analysis series of a sim or live run.

These exercise :mod:`repro.obs.series` on hand-built tracer, record and
registry state, so every expected value is computable by hand: the
forward-fill semantics of ``p_admit`` tracks, windowed bucket-count
quantiles and goodput differencing.  A registry is fed to the snapshot
builders as the one-process case, gridded on its own snapshot times —
exactly how a traced run's series is built.  The last test holds a traced companion's document and a live
run's document to one schema.
"""

from itertools import chain

import pytest

from repro.analysis.report import render_text, summarize
from repro.experiments.series_checks import series_failures
from repro.obs.metrics import MetricsRegistry
from repro.obs.series import (
    SERIES_SCHEMA,
    _counts_quantile,
    build_series,
    fill_on_grid,
    flow_summary,
    goodput_tracks_from_snapshots,
    p_admit_events,
    rnl_tracks_from_snapshots,
)
from repro.obs.trace import Tracer
from tests.test_series_pins import live_series, sim_series


def _tracer_with_adjustments():
    tracer = Tracer()
    tracer.on_admission("h0->h1", 0, 0.9, "decrease", 5)
    tracer.on_admission("h0->h1", 0, 0.8, "decrease", 15)
    tracer.on_admission("h0->h2", 1, 0.95, "decrease", 25)
    return tracer


# ----------------------------------------------------------------------
# p_admit tracks
# ----------------------------------------------------------------------
def test_p_admit_events_are_raw_adjustments():
    tracks = p_admit_events(_tracer_with_adjustments().admission_events)
    assert tracks["h0->h1/qos0"] == [(5, 0.9), (15, 0.8)]
    assert tracks["h0->h2/qos1"] == [(25, 0.95)]


def test_p_admit_tracks_forward_fill_from_one():
    events = p_admit_events(_tracer_with_adjustments().admission_events)
    tracks = {key: fill_on_grid(track, [0, 10, 20, 30]) for key, track in events.items()}
    # Starts at 1.0 before the first adjustment, then holds the last
    # adjusted value — a channel that stops adjusting reads as settled.
    assert tracks["h0->h1/qos0"] == [(0, 1.0), (10, 0.9), (20, 0.8), (30, 0.8)]
    assert tracks["h0->h2/qos1"] == [(0, 1.0), (10, 1.0), (20, 1.0), (30, 0.95)]


# ----------------------------------------------------------------------
# Windowed bucket-count quantiles
# ----------------------------------------------------------------------
def test_counts_quantile_interpolates_within_bucket():
    bounds = (100.0, 200.0, 400.0)
    assert _counts_quantile([0, 4, 0, 0], bounds, 0.5) == pytest.approx(150.0)
    assert _counts_quantile([0, 4, 0, 0], bounds, 1.0) == pytest.approx(200.0)
    assert _counts_quantile([0, 0, 4, 0], bounds, 0.5) == pytest.approx(300.0)


def test_counts_quantile_rejects_empty_window():
    with pytest.raises(ValueError):
        _counts_quantile([0, 0, 0], (1.0, 2.0), 0.5)


# ----------------------------------------------------------------------
# Registry-derived tracks
# ----------------------------------------------------------------------
def _snap(registry, t_ns):
    registry.series.append((t_ns, registry.snapshot(include_buckets=True)))


def _grid(registry):
    return [t for t, _snap in registry.series]


def _rnl(registry):
    return rnl_tracks_from_snapshots(
        [registry.series], registry.all_histogram_bounds(), _grid(registry)
    )


def test_rnl_percentile_tracks_difference_snapshots():
    registry = MetricsRegistry()
    hist = registry.histogram("rnl_norm_ns", qos=0, bounds=[100.0, 200.0, 400.0])
    _snap(registry, 0)
    for _ in range(4):
        hist.observe(150.0)  # bucket (100, 200]
    _snap(registry, 1_000)
    for _ in range(4):
        hist.observe(300.0)  # bucket (200, 400]
    _snap(registry, 2_000)

    tracks = _rnl(registry)
    # Each window sees only the observations since the last snapshot:
    # the second window's p50 is 300, not the cumulative ~200.
    assert tracks["0"]["p50"] == [(1_000, pytest.approx(150.0)),
                                  (2_000, pytest.approx(300.0))]
    assert tracks["0"]["p99"][1][1] == pytest.approx(396.0, rel=0.01)


def test_rnl_tracks_skip_empty_windows():
    registry = MetricsRegistry()
    hist = registry.histogram("rnl_norm_ns", qos=1, bounds=[100.0, 200.0])
    _snap(registry, 0)
    _snap(registry, 1_000)  # no observations: contributes no point
    hist.observe(150.0)
    _snap(registry, 2_000)
    tracks = _rnl(registry)
    assert [t for t, _v in tracks["1"]["p50"]] == [2_000]


def test_goodput_tracks_are_windowed_rates():
    registry = MetricsRegistry()
    counter = registry.counter("rpc_completed_bytes", qos=0)
    _snap(registry, 0)
    counter.inc(1_250)  # 1250 B over 1000 ns = 10 Gbps
    _snap(registry, 1_000)
    counter.inc(2_500)  # 2500 B over 1000 ns = 20 Gbps
    _snap(registry, 2_000)
    tracks = goodput_tracks_from_snapshots([registry.series], _grid(registry))
    assert tracks["0"] == [(1_000, pytest.approx(10.0)),
                           (2_000, pytest.approx(20.0))]


# ----------------------------------------------------------------------
# Flow summary + the assembled document
# ----------------------------------------------------------------------
def test_flow_summary_counts_flows_and_retransmits():
    tracer = Tracer()
    tracer.on_flow_ack("h0->h1/qos0", 12.0, 5_000, 10)
    tracer.on_flow_ack("h0->h1/qos0", 13.0, 5_100, 20)
    tracer.on_flow_ack("h0->h2/qos1", 8.0, 6_000, 30)
    tracer.on_flow_retransmit("h0->h1/qos0", 4, 40)
    tracer.on_flow_retransmit("h0->h1/qos0", 5, 50)
    summary = flow_summary(chain(tracer.flow_cwnd_samples, tracer.flow_retransmits))
    assert summary["cwnd_samples"] == 3
    assert summary["flows"] == 2
    assert summary["retransmits"] == {"h0->h1/qos0": 2}
    # A live run's client records: every connection peer is a flow and
    # every retry, keyed by reason, the live analog of a retransmit.
    live = flow_summary([
        {"type": "conn", "event": "connect", "peer": "127.0.0.1:9", "time_ns": 1},
        {"type": "retry", "request_id": 1, "reason": "timeout", "time_ns": 2},
        {"type": "conn", "event": "close", "peer": "127.0.0.1:9", "time_ns": 3},
        {"type": "rpc", "rpc_id": 1},
    ])
    assert live == {"cwnd_samples": 0, "flows": 1, "retransmits": {"timeout": 1}}


def test_build_series_schema_and_grid():
    tracer = _tracer_with_adjustments()
    registry = MetricsRegistry()
    registry.counter("rpc_completed_bytes", qos=0).inc(1_000)
    _snap(registry, 10)
    _snap(registry, 20)
    series = build_series(
        tracer.admission_events, tracer.queue_spans, [], [registry.series],
        registry.all_histogram_bounds(), _grid(registry),
        slo_ns={"0": 200.0}, slo_miss_rate={}, attribution={}, alerts=[],
    )
    assert series["schema"] == SERIES_SCHEMA
    assert set(series) == {
        "schema",
        "p_admit",
        "p_admit_events",
        "rnl",
        "slo_ns",
        "slo_miss_rate",
        "goodput_gbps",
        "queue_residency",
        "flows",
        "snapshots",
        "alerts",
        "attribution",
    }
    assert series["snapshots"] == 2
    # p_admit is forward-filled onto the registry's snapshot grid.
    assert series["p_admit"]["h0->h1/qos0"] == [(10, 0.9), (20, 0.8)]
    assert series["goodput_gbps"] == {"0": [(20, 0.0)]}


def test_sim_and_live_documents_share_one_schema(tmp_path):
    sim = sim_series("fig08")
    live = live_series(tmp_path, with_metrics=True)
    assert sim.pop("figure") == "fig08"
    assert set(sim) == set(live)
    for doc in (sim, live):
        run = {"experiment": "x", "run_id": "r", "points": [], "series": doc}
        assert summarize(run)["qos"]
        assert "p_admit convergence" in render_text(run)
        assert not any("schema" in f for f in series_failures(doc, "x"))

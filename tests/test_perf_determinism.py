"""Determinism digests and streaming metrics.

The performance ledger asserts digest equality across repetitions of
its workloads; these tests pin down the underlying guarantees — same
seed gives bit-identical results, and the streaming MetricsCollector
mode aggregates to the same digest the full-retention mode does.
"""

import pytest

from repro.core.qos import Priority
from repro.rpc.message import Rpc
from repro.rpc.stack import MetricsCollector
from repro.sim.engine import ns_from_ms
from repro.stats.digest import completed_rpc_digest, digest_hex


def _run_star(until_ms: float, seed: int):
    """The ledger's ``sim_incast_32k`` cluster (7 senders incasting one
    host, Aequitas on), run to ``until_ms`` of its 24 ms horizon."""
    from benchmarks.ledger.wl_sim import make

    cluster = make("sim_incast_32k")._build(seed, None)
    cluster.sim.run(until=ns_from_ms(until_ms))
    return completed_rpc_digest(cluster.metrics)


def test_star_admission_same_seed_same_digest():
    """Two fresh builds of the star-admission scenario with one seed
    must agree on completed count, summed RNL, and per-QoS byte mix —
    the whole digest, bit for bit."""
    first = _run_star(5.0, 7)
    second = _run_star(5.0, 7)
    assert first == second
    assert digest_hex(first) == digest_hex(second)
    assert first["completed"] > 0, "scenario must actually complete RPCs"


def test_star_admission_different_seed_different_digest():
    assert _run_star(5.0, 7) != _run_star(5.0, 8)


# ----------------------------------------------------------------------
# Streaming MetricsCollector
# ----------------------------------------------------------------------
def _rpc(rpc_id, qos, payload=4096, rnl=1000):
    r = Rpc(
        src=0,
        dst=1,
        priority=Priority.PC,
        payload_bytes=payload,
        issued_ns=0,
        rpc_id=rpc_id,
    )
    r.qos_requested = qos
    r.qos_run = qos
    r.completed_ns = rnl
    r.rnl_ns = rnl
    return r


def _feed(metrics, n=50):
    for i in range(n):
        r = _rpc(i, qos=i % 3, payload=1000 + i, rnl=500 + i)
        metrics.record_issue(r)
        metrics.record_completion(r)


def test_streaming_collector_matches_retention_digest():
    full = MetricsCollector()
    lean = MetricsCollector(streaming=True)
    _feed(full)
    _feed(lean)
    assert completed_rpc_digest(full) == completed_rpc_digest(lean)
    # Streaming keeps no per-RPC records...
    assert lean.issued == [] and lean.completed == []
    # ...but all aggregate counters match the full collector.
    assert lean.issued_count == full.issued_count == 50
    assert lean.completed_count == 50
    assert lean.run_bytes_by_qos == full.run_bytes_by_qos
    assert lean.admitted_mix() == full.admitted_mix()
    assert lean.offered_mix() == full.offered_mix()


def test_streaming_collector_reservoir_samples():
    lean = MetricsCollector(streaming=True)
    _feed(lean, n=100)
    for qos in range(3):
        samples = lean.normalized_rnl_ns(qos)
        assert samples, "reservoir should hold samples for a served class"
        assert len(samples) <= MetricsCollector.RESERVOIR_SIZE
    assert lean.normalized_rnl_ns(9) == []


def test_streaming_collector_rejects_windowed_queries():
    lean = MetricsCollector(streaming=True)
    _feed(lean)
    with pytest.raises(RuntimeError):
        lean.normalized_rnl_ns(0, since_ns=10)
    with pytest.raises(RuntimeError):
        lean.admitted_mix(since_ns=10)
    with pytest.raises(RuntimeError):
        lean.absolute_rnl_ns(0)
    with pytest.raises(RuntimeError):
        lean.goodput_fraction(since_ns=10)
    with pytest.raises(RuntimeError):
        lean.slo_met_fraction(0, None, until_ns=10)


def test_streaming_collector_whole_run_summaries_match_batch():
    """The streaming collector exposes the same whole-run summary
    interface as batch mode: goodput, percentiles within histogram
    resolution, and a full rnl_summary key set."""
    full = MetricsCollector()
    lean = MetricsCollector(streaming=True)
    _feed(full)
    _feed(lean)
    assert lean.goodput_fraction() == full.goodput_fraction() == 1.0
    for qos in range(3):
        exact = full.rnl_percentile(qos, 99.0)
        approx = lean.rnl_percentile(qos, 99.0)
        # Fixed-bucket interpolation is accurate to one bucket's
        # relative width (~33% at 8 buckets per decade).
        assert approx == pytest.approx(exact, rel=0.35)
        assert set(lean.rnl_summary(qos)) == set(full.rnl_summary(qos))
        assert lean.rnl_summary(qos)["count"] == full.rnl_summary(qos)["count"]

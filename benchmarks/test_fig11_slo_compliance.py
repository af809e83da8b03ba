"""Figure 11 bench: achieved tail RNL tracks the configured SLO.

Paper: sweeping the QoS_h SLO from 15 to 60 us, the achieved 99.9p RNL
hugs the SLO line while the admitted QoS_h share reflects the
SLO/throughput trade-off.  (Laptop scaling: 99th percentile + faster
alpha; see the driver docstring.)
"""

from repro.experiments import fig11
from repro.runner.point import Point


def _point(slo_us):
    duration_ms = max(60.0, 3.0 * slo_us)
    return Point(
        "fig11",
        {
            "slo_us": slo_us,
            "duration_ms": duration_ms,
            "warmup_ms": duration_ms / 3.0,
            "alpha": 0.05,
            "target_percentile": 99.0,
        },
    )


def test_fig11_slo_compliance(run_once):
    points = [_point(slo_us) for slo_us in (15.0, 25.0, 40.0)]
    rows = run_once(lambda: [fig11.run_point(p, 11) for p in points])
    print()
    print(fig11.table(rows))
    for r in rows:
        # Achieved tail within a factor ~2 band of the SLO — i.e., the
        # SLO is neither wildly violated nor trivially over-satisfied.
        assert r["achieved_tail_us"] < 2.0 * r["slo_us"]
        assert r["achieved_tail_us"] > 0.2 * r["slo_us"]
        # Meaningful traffic admitted at QoS_h in all cases.
        assert r["qos_h_admitted_share"] > 0.15

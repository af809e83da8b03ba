"""Figure 21 bench: production sizes under extreme overload.

Paper (144 nodes, 25x instantaneous burst): Aequitas improves QoS_h /
QoS_m tails by 3.7x / 2.2x and shifts the admitted mix from (60,30,10)
to roughly (20,26,54).  Scaled run (see driver docstring); the measured
factors and mix shift should match those shapes.
"""

from repro.experiments import fig21
from repro.runner.point import Point


def test_fig21_large_scale(run_once):
    spec = {
        "num_hosts": 8,
        "burst_rho": 2.5,
        "mu": 0.6,
        "duration_ms": 30.0,
        "warmup_ms": 15.0,
        "slo_h_us": 20.0,
        "slo_m_us": 30.0,
    }
    points = [
        Point("fig21", {"scheme": scheme, **spec}) for scheme in ("wfq", "aequitas")
    ]
    rows = run_once(lambda: [fig21.run_point(p, 21) for p in points])
    print()
    print(fig21.table(rows))
    by = {r["scheme"]: r for r in rows}
    # Big tail improvements for the SLO classes (paper: 3.7x / 2.2x).
    assert fig21.improvement(by, "0") > 2.0
    assert fig21.improvement(by, "1") > 1.2
    # The admitted mix shifts sharply toward the scavenger class
    # (paper: QoS_l share 10% -> 54%).
    with_mix, without_mix = by["aequitas"]["admitted_mix"], by["wfq"]["admitted_mix"]
    assert with_mix[2] > 0.4
    assert with_mix[0] < without_mix[0] / 2

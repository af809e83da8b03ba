"""Figure 18 bench: in-quota channels keep p_admit ~ 1 (max-min).

Paper: a channel using 10% of line rate on QoS_h (below fair share)
keeps its admit probability near 1.0 and its full 10 Gbps; the other
channel reclaims the slack.  Paper's 1st-percentile p_admit: 0.82.
"""

from repro.experiments import fig18
from repro.runner.point import Point


def test_fig18_inquota(run_once):
    params = {"share_a": 0.1, "share_b": 0.8, "alpha": 0.05, "beta": 0.01}
    point = Point("fig18", {**params, "duration_ms": 60.0})
    row = run_once(fig18.run_point, point, 18)
    print()
    print(fig18.table([row]))
    assert row["p_admit_a"] > 0.9
    assert row["p_admit_a_p1"] > 0.6
    # A keeps its demand; B reclaims the excess (max-min, not equal).
    assert row["goodput_a_gbps"] > 8.0
    assert row["goodput_b_gbps"] > row["goodput_a_gbps"]

"""Figure 10 bench: packet simulator validates the closed-form theory.

Paper: "the simulator results precisely track the theory including
priority inversion points and delay values barring QoS_l's delay,
which is slightly higher in the simulation" — both properties checked.
"""

from repro.experiments import fig10
from repro.runner.point import Point


def test_fig10_sim_validation(run_once):
    params = {"mu": 0.8, "rho": 1.2, "phi": 4.0, "period_us": 500.0, "periods": 2}
    points = [Point("fig10", {**params, "share": 0.05 * i}) for i in range(1, 20)]
    rows = run_once(lambda: [fig10.run_point(p, 0) for p in points])
    print()
    print(fig10.table(rows))
    assert fig10.max_error_h(rows) < 0.01
    for r in rows:
        assert abs(r["sim_h"] - r["theory_h"]) < 0.01
        assert r["sim_l"] >= r["theory_l"] - 0.01  # packetization never undershoots
        assert abs(r["sim_l"] - r["theory_l"]) < 0.02

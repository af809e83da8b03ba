"""Figure 9 bench: fluid 3-QoS worst-case delay, weights 8:4:1 vs 50:4:1.

Paper takeaway: the admissible (no-inversion) region ends near
QoS_h-share 0.57 with weights 8:4:1 and moves right to ~0.89 with
50:4:1, at the cost of higher QoS_m delay.
"""

from repro.experiments import fig09
from repro.runner.point import Point


def test_fig09_three_qos(run_once):
    points = [
        Point(
            "fig09",
            {"weights": weights, "mu": 0.8, "rho": 1.4, "share": 0.05 + 0.05 * i},
        )
        for weights in ([8, 4, 1], [50, 4, 1])
        for i in range(18)
    ]
    rows = run_once(lambda: [fig09.run_point(p, 0) for p in points])
    print()
    print(fig09.table(rows))
    panels = fig09.panels(rows)
    light, heavy = panels[(8, 4, 1)], panels[(50, 4, 1)]
    assert abs(fig09.inversion_share(light) - 8 / 14) < 0.06
    assert abs(fig09.inversion_share(heavy) - 50 / 56) < 0.06
    assert fig09.inversion_share(heavy) > fig09.inversion_share(light)
    # The cost: at mid shares QoS_m delay is no better with weight 50.
    mid_light = [r for r in light if abs(r["share"] - 0.4) < 0.02][0]
    mid_heavy = [r for r in heavy if abs(r["share"] - 0.4) < 0.02][0]
    assert mid_heavy["delay_m"] >= mid_light["delay_m"] - 1e-9

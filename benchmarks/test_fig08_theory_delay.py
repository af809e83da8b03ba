"""Figure 8 bench: theoretical 2-QoS worst-case delay curves.

Paper series (weights 4:1, mu=0.8, rho=1.2): QoS_h delay-free until
~0.67 share, priority inversion at share 0.8, saturation at
mu(1-1/rho)=0.133; QoS_l delay starts at 0.133 and falls to zero.
"""

from repro.experiments import fig08
from repro.runner.point import Point


def test_fig08_theory_delay(run_once):
    points = [
        Point("fig08", {"mu": 0.8, "rho": 1.2, "phi": 4.0, "share": i / 40})
        for i in range(41)
    ]
    rows = run_once(lambda: [fig08.run_point(p, 0) for p in points])
    print()
    print(fig08.table(rows))
    assert rows[0]["inversion_share"] == 0.8
    by_share = {round(r["share"], 3): (r["delay_h"], r["delay_l"]) for r in rows}
    assert by_share[0.5][0] == 0.0  # delay-free region
    assert abs(by_share[1.0][0] - 0.1333) < 1e-3  # saturation value
    assert abs(by_share[0.0][1] - 0.1333) < 1e-3
    assert by_share[1.0][1] == 0.0
    # Priority inversion beyond the boundary.
    assert by_share[0.9][0] > by_share[0.9][1]
    assert by_share[0.75][0] < by_share[0.75][1]

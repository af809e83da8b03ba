"""Figure 19 bench: Aequitas vs strict priority under the race to the top.

Paper: as the QoS_h-share grows 50% -> 80%, SPQ's QoS_m tail explodes
(starvation behind the high class) while Aequitas keeps both SLO
classes predictable by downgrading the excess.
"""

from repro.experiments import fig19
from repro.runner.point import Point


def test_fig19_spq(run_once):
    spec = {"num_hosts": 6, "duration_ms": 24.0, "warmup_ms": 12.0}
    shares = (0.5, 0.65, 0.8)
    points = [
        Point("fig19", {"qos_h_share": share, "scheme": scheme, **spec})
        for share in shares
        for scheme in ("aequitas", "spq")
    ]
    rows = run_once(lambda: [fig19.run_point(p, 19) for p in points])
    print()
    print(fig19.table(rows))
    tail = {(r["qos_h_share"], r["scheme"]): r for r in rows}
    first, last = shares[0], shares[-1]
    # SPQ's QoS_m tail grows sharply with the QoS_h share...
    assert tail[last, "spq"]["tail_m_us"] > 1.5 * tail[first, "spq"]["tail_m_us"]
    # ...and ends far above Aequitas' at the top of the sweep.
    assert tail[last, "spq"]["tail_m_us"] > 2.0 * tail[last, "aequitas"]["tail_m_us"]
    # Aequitas holds QoS_h near its 15 us SLO at every point.
    for share in shares:
        assert tail[share, "aequitas"]["tail_h_us"] < 2.0 * 15.0

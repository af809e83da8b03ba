"""Figure 14 bench: baseline tail RNL vs input QoS_h-share.

Paper: with QoS_m pinned at 25%, the QoS_h tail grows with QoS_h-share;
the share where it crosses the 15 us SLO is the maximal admissible
QoS_h traffic that Figure 15's admission targets.
"""

from repro.experiments import fig14
from repro.runner.point import Point


def test_fig14_admissible_sweep(run_once):
    spec = {"num_hosts": 8, "duration_ms": 12.0, "warmup_ms": 4.0}
    points = [
        Point("fig14", {"qos_h_share": share, **spec})
        for share in (0.05, 0.15, 0.30, 0.45, 0.60)
    ]
    rows = run_once(lambda: [fig14.run_point(p, 14) for p in points])
    print()
    print(fig14.table(rows))
    tails_h = [r["tail_h_us"] for r in rows]
    # Tail grows with offered QoS_h share (allow small sampling noise).
    assert tails_h[-1] > 2.0 * tails_h[0]
    crossing = fig14.share_at_slo(rows, 15.0)
    print(f"maximal admissible QoS_h-share at 15us SLO: {100 * crossing:.0f}%")
    assert 0.05 <= crossing <= 0.70
    # Every class's tail is finite and ordered h <= m <= l at low share
    # (no priority inversion inside the admissible region).
    low = rows[0]
    assert low["tail_h_us"] <= low["tail_m_us"] <= low["tail_l_us"]

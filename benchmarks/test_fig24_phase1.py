"""Figure 24 bench: Phase-1 alignment across a cluster ensemble.

Paper: the fleetwide Phase-1 rollout drove priority/QoS misalignment
from up to 80% to ~zero and cut high-priority 99p RNL by up to 53%
(mean ~10%), with the rollout completing over ~5 weeks.  Our simulated
ensemble (see driver docstring for the substitution) must show the same
direction: misalignment eliminated, PC tails improved in (almost) every
cluster.
"""

from repro.experiments import fig24
from repro.runner.point import Point


def test_fig24_phase1(run_once):
    spec = {"num_hosts": 5, "duration_ms": 10.0, "warmup_ms": 4.0}
    points = [Point("fig24", {"cluster_id": cid, **spec}) for cid in range(5)]
    # One seed per ensemble member (24 * 31 + cluster id), so each
    # cluster draws its own misalignment matrix and traffic.
    rows = run_once(
        lambda: [fig24.run_point(p, 24 * 31 + cid) for cid, p in enumerate(points)]
    )
    print()
    print(fig24.table(rows))
    # Mean PC-tail change is a clear improvement (negative %).
    assert fig24.mean_change_pct(rows) < -10.0
    # Most clusters improve individually.
    improved = sum(1 for r in rows if r["rnl_change_pct"] < 0)
    assert improved >= len(rows) - 1
    # The rollout curve ends at zero misalignment.
    weeks = fig24.rollout_weeks(rows)
    assert weeks[-1][1] == 0.0
    assert weeks[0][1] > 20.0

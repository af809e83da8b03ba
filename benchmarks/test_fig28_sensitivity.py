"""Figures 28/29 bench (Appendix C): alpha/beta sensitivity.

Paper: shrinking beta from 0.01 to 0.0015 per MTU stabilizes admit
probabilities (Channel A's 1st-percentile p_admit rises 0.82 -> 0.96 in
the Fig-18 scenario) at the cost of slower overload reaction — the
compliance/stability trade-off.
"""

from repro.experiments import fig28_29
from repro.runner.point import Point


def test_fig28_beta_sensitivity(run_once):
    points = [
        Point("fig28", {"beta": beta, "scenario": scenario, "duration_ms": 50.0})
        for beta in (0.01, 0.0015)
        for scenario in ("fig17", "fig18")
    ]
    rows = run_once(lambda: [fig28_29.run_point(p, 28) for p in points])
    print()
    print(fig28_29.table(rows))
    case = {(r["scenario"], r["beta"]): r for r in rows}
    # In the in-quota scenario the small beta keeps Channel A's
    # 1st-percentile admit probability at least as high as large beta's.
    small, large = case["fig18", 0.0015], case["fig18", 0.01]
    assert small["p1_admit_a"] >= large["p1_admit_a"] - 0.02
    assert small["p1_admit_a"] > 0.8
    # Stability: the small-beta trace is no noisier than the large-beta.
    assert small["stability_std"] <= large["stability_std"] + 0.02

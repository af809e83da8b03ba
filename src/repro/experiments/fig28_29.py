"""Figures 28/29 (Appendix C): alpha/beta sensitivity analysis.

A smaller multiplicative decrement (beta = 0.0015 instead of 0.01 per
MTU) trades SLO-compliance for stability: admit probabilities hold
closer to their fair-share values (the paper reports Channel A's
1st-percentile p_admit improving from 0.82 to 0.96 in the Fig-18
scenario) at the cost of slower reaction to overload.  Alpha has the
mirrored trade-off.  We repeat the Fig-17 and Fig-18 runs at both beta
values and report the stability and compliance metrics side by side.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.fig17 import run_two_channels
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge

_SCENARIOS = {"fig17": (0.4, 0.8), "fig18": (0.1, 0.8)}
_BETAS = (0.01, 0.0015)

PROFILES = {
    "paper": {"duration_ms": 50.0},
    "fast": {"duration_ms": 40.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig28",
            {"beta": beta, "scenario": scenario, "duration_ms": spec["duration_ms"]},
        )
        for beta in _BETAS
        for scenario in _SCENARIOS
    ]


def run_point(point: Point, seed: int) -> Row:
    import numpy as np

    p = point.params
    share_a, share_b = _SCENARIOS[p["scenario"]]
    result = run_two_channels(
        share_a=share_a,
        share_b=share_b,
        beta=p["beta"],
        duration_ms=p["duration_ms"],
        seed=seed,
    )
    # Channel A's admit probability past the first third (warmup).
    trace = result.channel_a.p_admit
    settled = [v for _, v in trace[len(trace) // 3:]]
    return {
        "beta": p["beta"],
        "scenario": p["scenario"],
        "p1_admit_a": float(np.percentile(settled, 1.0)),
        "stability_std": float(np.std(settled)),
        "throughput_gap": result.throughput_gap(),
    }


def table(rows: Sequence[Row]) -> str:
    lines = [
        "Figs 28/29 — beta sensitivity (Channel A admit probability)",
        f"{'scenario':>9} {'beta':>8} {'p1(p_admit_A)':>14} {'std':>7} {'tput gap':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r['scenario']:>9} {r['beta']:8.4f} {r['p1_admit_a']:14.2f} "
            f"{r['stability_std']:7.3f} {r['throughput_gap']:8.1%}"
        )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Figs 28/29, per
# profile; all four judge the Fig-18 scenario.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig28/in-quota-p1-admit": (">=", 0.8),
        "fig28/small-beta-p1-admit": (">", 0.8),
        "fig28/small-beta-p1-vs-large": (">=", -0.02),
        "fig28/small-beta-stability": ("<=", 0.02),
    },
}
BOUNDS["fast"] = BOUNDS["paper"]


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Sensitivity shape: in the Fig-18 scenario Channel A sits well
    under its fair share, so its worst-case admit probability stays
    high for both beta values, and the small beta is at least as
    stable and as admitting as the large one."""
    case = {(r["scenario"], r["beta"]): r for r in rows}
    small, large = case["fig18", min(_BETAS)], case["fig18", max(_BETAS)]
    return judge(
        BOUNDS[profile],
        {
            "fig28/in-quota-p1-admit": min(small["p1_admit_a"], large["p1_admit_a"]),
            "fig28/small-beta-p1-admit": small["p1_admit_a"],
            "fig28/small-beta-p1-vs-large": small["p1_admit_a"] - large["p1_admit_a"],
            "fig28/small-beta-stability": (
                small["stability_std"] - large["stability_std"]
            ),
        },
    )

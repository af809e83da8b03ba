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

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.fig17 import FairnessResult, run_two_channels
from repro.runner.point import Point, Row


@dataclass
class SensitivityCase:
    beta: float
    scenario: str  # "fig17" (40/80) or "fig18" (10/80)
    result: FairnessResult

    def p1_channel_a(self) -> float:
        """1st-percentile of Channel A's admit probability (post-warmup)."""
        import numpy as np

        warm = self.result.channel_a.p_admit[len(self.result.channel_a.p_admit) // 3:]
        return float(np.percentile([v for _, v in warm], 1.0))

    def stability_std(self) -> float:
        import numpy as np

        warm = self.result.channel_a.p_admit[len(self.result.channel_a.p_admit) // 3:]
        return float(np.std([v for _, v in warm]))


@dataclass
class SensitivityResult:
    cases: List[SensitivityCase]

    def case(self, scenario: str, beta: float) -> SensitivityCase:
        for c in self.cases:
            if c.scenario == scenario and abs(c.beta - beta) < 1e-12:
                return c
        raise KeyError((scenario, beta))

    def table(self) -> str:
        lines = [
            "Figs 28/29 — beta sensitivity (Channel A admit probability)",
            f"{'scenario':>9} {'beta':>8} {'p1(p_admit_A)':>14} {'std':>7} {'tput gap':>9}",
        ]
        for c in self.cases:
            lines.append(
                f"{c.scenario:>9} {c.beta:8.4f} {c.p1_channel_a():14.2f} "
                f"{c.stability_std():7.3f} {c.result.throughput_gap():8.1%}"
            )
        return "\n".join(lines)


def run(
    betas: Sequence[float] = (0.01, 0.0015),
    duration_ms: float = 60.0,
    seed: int = 28,
) -> SensitivityResult:
    cases = []
    for beta in betas:
        for scenario, (a, b) in (("fig17", (0.4, 0.8)), ("fig18", (0.1, 0.8))):
            result = run_two_channels(
                share_a=a,
                share_b=b,
                beta=beta,
                duration_ms=duration_ms,
                seed=seed,
            )
            cases.append(SensitivityCase(beta=beta, scenario=scenario, result=result))
    return SensitivityResult(cases=cases)


# ----------------------------------------------------------------------
# Sweep interface (repro.runner)
# ----------------------------------------------------------------------
_SCENARIOS = {"fig17": (0.4, 0.8), "fig18": (0.1, 0.8)}
_BETAS = (0.01, 0.0015)

PROFILES = {
    "paper": {"duration_ms": 60.0},
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
    p = point.params
    share_a, share_b = _SCENARIOS[p["scenario"]]
    result = run_two_channels(
        share_a=share_a,
        share_b=share_b,
        beta=p["beta"],
        duration_ms=p["duration_ms"],
        seed=seed,
    )
    case = SensitivityCase(beta=p["beta"], scenario=p["scenario"], result=result)
    return {
        "beta": p["beta"],
        "scenario": p["scenario"],
        "p1_admit_a": case.p1_channel_a(),
        "stability_std": case.stability_std(),
        "throughput_gap": result.throughput_gap(),
    }


def check(rows: Sequence[Row], profile: str) -> List[str]:
    """Sensitivity shape: in the Fig-18 scenario Channel A sits well
    under its fair share, so its worst-case admit probability must stay
    high for *both* beta values.  The beta stability/compliance
    trade-off itself is too seed-sensitive at laptop durations to gate
    CI on — the full Figs 28/29 runs report it instead."""
    failures: List[str] = []
    for scenario in _SCENARIOS:
        by_beta = {r["beta"]: r for r in rows if r["scenario"] == scenario}
        if set(by_beta) != set(_BETAS):
            failures.append(
                f"fig28: scenario {scenario} missing beta rows "
                f"(got {sorted(by_beta)})"
            )
            continue
        if scenario != "fig18":
            continue
        for beta, row in by_beta.items():
            if not row["p1_admit_a"] >= 0.8:
                failures.append(
                    f"fig28: under-share channel lost admission in fig18 "
                    f"scenario at beta={beta} (p1={row['p1_admit_a']:.2f})"
                )
    return failures

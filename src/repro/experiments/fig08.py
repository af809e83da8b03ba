"""Figure 8: theoretical 2-QoS worst-case delay versus QoS_h-share.

Closed-form evaluation of Equations 1 and 8 with the paper's settings:
weights 4:1, mu = 0.8, rho = 1.2.  The curves exhibit the piecewise
regions derived in Appendix B, including the priority-inversion point
at x = phi / (phi + 1) = 0.8 beyond which QoS_h delay exceeds QoS_l's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.analysis.delay_bounds import (
    TrafficModel,
    delay_h,
    delay_l,
    priority_inversion_share,
)
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge

_MODEL = {"mu": 0.8, "rho": 1.2, "phi": 4.0}

PROFILES = {
    "paper": {"points": 41},
    "fast": {"points": 11},
}


def sweep(profile: str = "paper") -> List[Point]:
    n = PROFILES[profile]["points"]
    return [Point("fig08", {**_MODEL, "share": i / (n - 1)}) for i in range(n)]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    model = TrafficModel(mu=p["mu"], rho=p["rho"], phi=p["phi"])
    x = p["share"]
    return {
        "share": x,
        "delay_h": delay_h(x, model),
        "delay_l": delay_l(x, model),
        "inversion_share": priority_inversion_share(model),
    }


def table(rows: Sequence[Row]) -> str:
    lines = [
        f"Fig 8 — theoretical WFQ delay (phi={_MODEL['phi']:g}, "
        f"mu={_MODEL['mu']:g}, rho={_MODEL['rho']:g})",
        f"{'QoSh-share':>10} {'delay_h':>10} {'delay_l':>10}",
    ]
    for r in rows:
        lines.append(f"{r['share']:10.2f} {r['delay_h']:10.4f} {r['delay_l']:10.4f}")
    lines.append(
        f"priority inversion beyond share = {rows[0]['inversion_share']:.3f}"
    )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 8, per profile.
# The fast grid has no share 0.75, so that claim is paper-only.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig08/delay-nonnegative": (">=", 0.0),
        "fig08/h-delay-free-low-share": ("<=", 0.05),
        "fig08/h-delay-at-0.5": ("==", 0.0),
        "fig08/inversion-share": ("==", 0.8),
        "fig08/inversion-onset-min": (">=", 0.75),
        "fig08/inversion-onset-max": ("<=", 0.95),
        "fig08/inverted-at-0.9": (">", 0.0),
        "fig08/not-inverted-at-0.75": (">", 0.0),
        "fig08/h-saturation-error": ("<", 0.001),
        "fig08/l-saturation-error": ("<", 0.001),
        "fig08/l-delay-at-1": ("==", 0.0),
    },
}
BOUNDS["fast"] = dict(BOUNDS["paper"])
del BOUNDS["fast"]["fig08/not-inverted-at-0.75"]


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Delay-free region, saturation at mu(1 - 1/rho), then priority
    inversion past phi/(phi+1).

    Traced sweeps also judge the companion scenario's analysis series:
    in the inversion regime admission must actually throttle QoS_h
    (settled p_admit < 1) yet still converge, and the SLO-carrying
    levels must stay inside their miss budget.
    """
    at = {round(r["share"], 3): r for r in rows}
    saturation = _MODEL["mu"] * (1 - 1 / _MODEL["rho"])
    inverted = [r["share"] for r in rows if r["delay_h"] > r["delay_l"] + 1e-9]
    # How far QoS_l's delay sits above QoS_h's at each share.
    margin = {share: r["delay_l"] - r["delay_h"] for share, r in at.items()}
    onset = min(inverted, default=float("nan"))
    claims = judge(
        BOUNDS[profile],
        {
            "fig08/delay-nonnegative": min(
                min(r["delay_h"], r["delay_l"]) for r in rows
            ),
            "fig08/h-delay-free-low-share": max(
                r["delay_h"] for r in rows if r["share"] <= 0.25
            ),
            "fig08/h-delay-at-0.5": at[0.5]["delay_h"],
            "fig08/inversion-share": rows[0]["inversion_share"],
            "fig08/inversion-onset-min": onset,
            "fig08/inversion-onset-max": onset,
            "fig08/inverted-at-0.9": -margin[0.9],
            "fig08/not-inverted-at-0.75": margin.get(0.75, float("nan")),
            "fig08/h-saturation-error": abs(at[1.0]["delay_h"] - saturation),
            "fig08/l-saturation-error": abs(at[0.0]["delay_l"] - saturation),
            "fig08/l-delay-at-1": at[1.0]["delay_l"],
        },
    )
    if series is not None:
        from repro.experiments.series_checks import series_claims, settled_p_admit

        found = series_claims(series, "fig08", converge_qos=(0, 1))
        if all(c.passed for c in found):
            # How far below 1 QoS_h settled: throttled, not just admitted.
            found += judge(
                {"fig08/series-qos0-throttled": (">", 1e-9)},
                {"fig08/series-qos0-throttled": 1 - settled_p_admit(series)[0]},
            )
        claims += found
    return claims

"""Figure 8: theoretical 2-QoS worst-case delay versus QoS_h-share.

Closed-form evaluation of Equations 1 and 8 with the paper's settings:
weights 4:1, mu = 0.8, rho = 1.2.  The curves exhibit the piecewise
regions derived in Appendix B, including the priority-inversion point
at x = phi / (phi + 1) = 0.8 beyond which QoS_h delay exceeds QoS_l's.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.analysis.delay_bounds import (
    TrafficModel,
    delay_h,
    delay_l,
    priority_inversion_share,
)
from repro.runner.point import Point, Row

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


def check(
    rows: Sequence[Row], profile: str, series: Optional[Row] = None
) -> List[str]:
    """Shape assertions: delay-free region, then priority inversion.

    Traced sweeps also validate the companion scenario's analysis
    series: in the inversion regime admission must actually throttle
    QoS_h (settled p_admit < 1) yet still converge, and the SLO-carrying
    levels must stay inside their miss budget.
    """
    failures: List[str] = []
    if series is not None:
        from repro.experiments.series_checks import _as_tracks, series_failures

        failures.extend(series_failures(series, "fig08", converge_qos=(0, 1)))
        if not failures:
            from repro.analysis.convergence import per_qos_convergence

            rollup = per_qos_convergence(_as_tracks(series["p_admit"]))
            if rollup[0].settled_value >= 1.0 - 1e-9:
                failures.append(
                    "fig08: traced inversion regime never throttled QoS_h "
                    "(settled p_admit = 1.0)"
                )
    if any(r["delay_h"] < 0 or r["delay_l"] < 0 for r in rows):
        failures.append("fig08: negative worst-case delay")
    low = [r for r in rows if r["share"] <= 0.25]
    if low and max(r["delay_h"] for r in low) > 0.05:
        failures.append("fig08: QoS_h not delay-free at low share")
    inverted = [r["share"] for r in rows if r["delay_h"] > r["delay_l"] + 1e-9]
    if not inverted:
        failures.append("fig08: priority inversion never observed in sweep")
    elif not 0.75 <= min(inverted) <= 0.95:
        failures.append(
            f"fig08: inversion onset at share {min(inverted):.2f}, "
            "expected near phi/(phi+1) = 0.80"
        )
    return failures

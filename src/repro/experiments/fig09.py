"""Figure 9: simulated (fluid) worst-case delay with 3 QoS levels.

Sweeps QoS_h-share with the QoS_m : QoS_l remainder fixed at 2:1 under
mu = 0.8, rho = 1.4, for two weight settings: 8:4:1 (panel a) and
50:4:1 (panel b).  The paper's takeaways, both checked in tests:

* QoS-mix shapes the whole delay profile;
* raising the QoS_h weight from 8 to 50 pushes the priority-inversion
  point (the admissible region boundary) to the right, at the cost of
  higher QoS_m delay (Lemma 1 / Lemma 2).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fluid import sweep_three_qos
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge

_PANELS = ([8, 4, 1], [50, 4, 1])

PROFILES = {
    "paper": {"shares": [round(0.05 + 0.05 * i, 2) for i in range(18)]},
    "fast": {"shares": [round(0.1 * i, 1) for i in range(1, 10)]},
}


def sweep(profile: str = "paper") -> List[Point]:
    shares = PROFILES[profile]["shares"]
    return [
        Point("fig09", {"weights": weights, "mu": 0.8, "rho": 1.4, "share": x})
        for weights in _PANELS
        for x in shares
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    ((x, dh, dm, dl),) = sweep_three_qos(
        [p["share"]], weights=tuple(p["weights"]), mu=p["mu"], rho=p["rho"]
    )
    return {
        "weights": list(p["weights"]),
        "share": x,
        "delay_h": dh,
        "delay_m": dm,
        "delay_l": dl,
    }


def panels(rows: Sequence[Row]) -> Dict[Tuple[int, ...], List[Row]]:
    """The rows of each weight setting, keyed by the weight tuple."""
    return {
        tuple(weights): [r for r in rows if r["weights"] == weights]
        for weights in _PANELS
    }


def inversion_share(rows: Sequence[Row]) -> float:
    """First swept share of one panel where some higher class is slower
    than a lower one (the right edge of the admissible region)."""
    for r in sorted(rows, key=lambda r: r["share"]):
        if r["delay_h"] > r["delay_m"] + 1e-9 or r["delay_m"] > r["delay_l"] + 1e-9:
            return r["share"]
    return 1.0


def table(rows: Sequence[Row]) -> str:
    """One table per panel, (a) 8:4:1 then (b) 50:4:1."""
    tables = []
    for weights, panel in panels(rows).items():
        lines = [
            f"Fig 9 — fluid 3-QoS worst-case delay, weights {weights}",
            f"{'QoSh-share':>10} {'delay_h':>9} {'delay_m':>9} {'delay_l':>9}",
        ]
        for r in panel:
            lines.append(
                f"{r['share']:10.2f} {r['delay_h']:9.4f} "
                f"{r['delay_m']:9.4f} {r['delay_l']:9.4f}"
            )
        lines.append(
            f"admissible region ends near share = {inversion_share(panel):.2f}"
        )
        tables.append("\n".join(lines))
    return "\n\n".join(tables)


# Bounds of each claim EXPERIMENTS.md lists under Fig 9, per profile.
# On the paper grid each inversion edge lies within 0.06 of
# phi_h / (phi_h + phi_m), i.e. 8/14 and 50/56; the fast grid keeps a
# looser band.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig09/light-edge-min": (">", 8 / 14 - 0.06),
        "fig09/light-edge-max": ("<", 8 / 14 + 0.06),
        "fig09/heavy-edge-min": (">", 50 / 56 - 0.06),
        "fig09/heavy-edge-max": ("<", 50 / 56 + 0.06),
        "fig09/heavy-edge-beyond-light": (">", 0.0),
        "fig09/m-cost-at-0.4": (">=", -1e-09),
        "fig09/m-cost-at-0.5": (">", 0.0),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig09/light-edge-min": (">=", 0.45),
    "fig09/light-edge-max": ("<=", 0.70),
    "fig09/heavy-edge-min": (">=", 0.8),
}


def _m_cost(
    by_weights: Dict[Tuple[int, ...], List[Row]], share: float, near: float
) -> float:
    """How much more QoS_m delay 50:4:1 costs than 8:4:1 near a share
    (the lowest delay of the rows within ``near`` of it, per panel)."""

    def delay_m(weights: Tuple[int, ...]) -> float:
        return min(
            r["delay_m"] for r in by_weights[weights] if abs(r["share"] - share) < near
        )

    return delay_m((50, 4, 1)) - delay_m((8, 4, 1))


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Lemma-1 shape: raising the QoS_h weight moves the admissible
    region's right edge outward at the cost of QoS_m delay (share 0.5
    is the first swept point past the 8:4:1 edge).

    Traced sweeps also judge the companion scenario's series: under
    the heavy 50:4:1 weighting the admissible region is wide enough
    that every channel settles fully admitted (contrast with fig08's
    inversion regime, which must throttle).
    """
    by_weights = panels(rows)
    light = inversion_share(by_weights[(8, 4, 1)])
    heavy = inversion_share(by_weights[(50, 4, 1)])
    claims = judge(
        BOUNDS[profile],
        {
            "fig09/light-edge-min": light,
            "fig09/light-edge-max": light,
            "fig09/heavy-edge-min": heavy,
            "fig09/heavy-edge-max": heavy,
            "fig09/heavy-edge-beyond-light": heavy - light,
            "fig09/m-cost-at-0.4": _m_cost(by_weights, 0.4, 0.02),
            "fig09/m-cost-at-0.5": _m_cost(by_weights, 0.5, 0.06),
        },
    )
    if series is not None:
        from repro.experiments.series_checks import series_claims, settled_p_admit

        found = series_claims(series, "fig09", converge_qos=(0, 1))
        if all(c.passed for c in found):
            found += judge(
                {"fig09/series-fully-admitted": (">=", 0.95)},
                {"fig09/series-fully-admitted": min(settled_p_admit(series).values())},
            )
        claims += found
    return claims

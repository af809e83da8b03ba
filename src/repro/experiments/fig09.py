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
from repro.runner.point import Point, Row

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


def check(
    rows: Sequence[Row], profile: str, series: Optional[Row] = None
) -> List[str]:
    """Lemma-1 shape: raising the QoS_h weight moves the admissible
    region's right edge outward at the cost of QoS_m delay.

    Traced sweeps also validate the companion scenario's series: under
    the heavy 50:4:1 weighting the admissible region is wide enough
    that every channel settles fully admitted (contrast with fig08's
    inversion regime, which must throttle).
    """
    failures: List[str] = []
    if series is not None:
        from repro.experiments.series_checks import _as_tracks, series_failures

        failures.extend(series_failures(series, "fig09", converge_qos=(0, 1)))
        if not failures:
            from repro.analysis.convergence import per_qos_convergence

            rollup = per_qos_convergence(_as_tracks(series["p_admit"]))
            low = {
                q: v.settled_value
                for q, v in rollup.items()
                if v.settled_value < 0.95
            }
            if low:
                failures.append(
                    "fig09: 50:4:1 weighting should keep channels fully "
                    f"admitted, but settled p_admit dipped: {low}"
                )
    by_weights = panels(rows)
    inv_a = inversion_share(by_weights[(8, 4, 1)])
    inv_b = inversion_share(by_weights[(50, 4, 1)])
    if not 0.45 <= inv_a <= 0.70:
        failures.append(
            f"fig09: 8:4:1 admissible region ends at {inv_a:.2f}, expected ~0.57"
        )
    if not inv_b >= 0.80:
        failures.append(
            f"fig09: 50:4:1 admissible region ends at {inv_b:.2f}, expected ~0.89"
        )
    # The cost of the wider admissible region: once panel (a) has
    # inverted, the 50:4:1 weighting buys its extra QoS_h headroom with
    # strictly higher QoS_m delay (share 0.5 is the first swept point
    # past the 8:4:1 boundary).
    mid = 0.5
    dm_a = min(
        (r["delay_m"] for r in by_weights[(8, 4, 1)] if abs(r["share"] - mid) < 0.06),
        default=None,
    )
    dm_b = min(
        (r["delay_m"] for r in by_weights[(50, 4, 1)] if abs(r["share"] - mid) < 0.06),
        default=None,
    )
    if dm_a is not None and dm_b is not None and not dm_b > dm_a:
        failures.append("fig09: QoS_m delay did not rise when QoS_h weight grew")
    return failures

"""Figure 16: admitted traffic is inversely proportional to burstiness.

Section 5.2 derives the guaranteed admitted share X_i <= g_i * mu / rho;
Figure 16 confirms empirically that as the burst load rho grows, the
QoS_h share Aequitas admits shrinks like C / rho.  We sweep rho, record
the admitted share, and report the least-squares C for the C/rho fit
plus the fit's relative error.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.cluster import run_cluster
from repro.experiments.fig12 import make_config
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.stats.digest import completed_rpc_digest


PROFILES = {
    "paper": {
        "rhos": [1.4, 1.8, 2.2],
        "num_hosts": 8,
        "duration_ms": 25.0,
        "warmup_ms": 12.0,
    },
    "fast": {
        "rhos": [1.4, 1.8, 2.2],
        "num_hosts": 6,
        "duration_ms": 24.0,
        "warmup_ms": 12.0,
    },
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig16",
            {
                "rho": rho,
                "num_hosts": spec["num_hosts"],
                "duration_ms": spec["duration_ms"],
                "warmup_ms": spec["warmup_ms"],
            },
        )
        for rho in spec["rhos"]
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    cfg = make_config(
        "aequitas",
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        seed=seed,
        rho=p["rho"],
    )
    result = run_cluster(cfg)
    return {
        "rho": p["rho"],
        "admitted_qos_h_share": result.admitted_mix().get(0, 0.0),
        "digest": completed_rpc_digest(result.metrics),
    }


def fit_c(rows: Sequence[Row]) -> float:
    """Least-squares C for share ~ C / rho: sum(s/rho) / sum(1/rho^2)."""
    num = sum(r["admitted_qos_h_share"] / r["rho"] for r in rows)
    den = sum(1.0 / r["rho"] ** 2 for r in rows)
    return num / den


def fit_error(rows: Sequence[Row]) -> float:
    """Mean relative deviation of the shares from the C/rho curve."""
    c = fit_c(rows)
    errs = [
        abs(r["admitted_qos_h_share"] - c / r["rho"]) / r["admitted_qos_h_share"]
        for r in rows
        if r["admitted_qos_h_share"] > 0
    ]
    return sum(errs) / len(errs) if errs else float("nan")


def table(rows: Sequence[Row]) -> str:
    c = fit_c(rows)
    lines = [
        "Fig 16 — admitted QoS_h share vs burst load rho",
        f"{'rho':>5} {'share(%)':>9} {'C/rho(%)':>9}",
    ]
    for r in rows:
        lines.append(
            f"{r['rho']:5.1f} {100 * r['admitted_qos_h_share']:9.1f} "
            f"{100 * c / r['rho']:9.1f}"
        )
    lines.append(f"fitted C = {c:.3f}, mean rel. error = {fit_error(rows):.1%}")
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 16, per profile.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig16/share-shrinks": ("<", 1.0),
        "fig16/c-over-rho-fit-error": ("<", 0.25),
    },
}
BOUNDS["fast"] = BOUNDS["paper"]


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Section-5.2 law: the admitted QoS_h share shrinks as rho grows,
    close to C / rho."""
    ordered = sorted(rows, key=lambda r: r["rho"])
    return judge(
        BOUNDS[profile],
        {
            # Share at the largest rho over the share at the smallest.
            "fig16/share-shrinks": (
                ordered[-1]["admitted_qos_h_share"]
                / max(ordered[0]["admitted_qos_h_share"], 1e-9)
            ),
            "fig16/c-over-rho-fit-error": fit_error(rows),
        },
    )

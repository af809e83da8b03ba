"""Figure 18: in-quota channels are not penalized (max-min fairness).

Channel A requests only 10% of its stream on QoS_h — below its fair
share — while Channel B requests 80%.  The expected behavior: A's admit
probability stays pinned near 1.0 (its RPCs are essentially never
downgraded) and B reclaims the head-room A leaves, i.e. max-min rather
than equal division.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.fig17 import channel_lines, run_two_channels
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.stats.digest import completed_rpc_digest

PROFILES = {
    "paper": {"duration_ms": 60.0},
    "fast": {"duration_ms": 40.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig18",
            {
                "share_a": 0.1,
                "share_b": 0.8,
                "alpha": 0.05,
                "beta": 0.01,
                "duration_ms": spec["duration_ms"],
            },
        )
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    result = run_two_channels(
        share_a=p["share_a"],
        share_b=p["share_b"],
        alpha=p["alpha"],
        beta=p["beta"],
        duration_ms=p["duration_ms"],
        seed=seed,
    )
    return {
        "share_a": p["share_a"],
        "share_b": p["share_b"],
        "p_admit_a": result.channel_a.steady_p_admit(),
        "p_admit_a_p1": result.channel_a.p_admit_percentile(1.0),
        "p_admit_b": result.channel_b.steady_p_admit(),
        "goodput_a_gbps": result.channel_a.steady_goodput_gbps(),
        "goodput_b_gbps": result.channel_b.steady_goodput_gbps(),
        "digest": completed_rpc_digest(result.metrics),
    }


def table(rows: Sequence[Row]) -> str:
    lines = ["Fig 18 — in-quota channel vs a heavy one"]
    for r in rows:
        lines += channel_lines(r)
        lines.append(
            f"Channel A p1(p_admit) = {r['p_admit_a_p1']:.2f} (paper: 0.82)"
        )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 18, per profile.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig18/in-quota-p-admit": (">", 0.9),
        "fig18/in-quota-p-admit-p1": (">", 0.6),
        "fig18/in-quota-goodput-gbps": (">", 8.0),
        "fig18/heavy-reclaims": (">", 1.0),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig18/in-quota-p-admit": (">", 0.85),
}


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Max-min shape: the in-quota channel keeps p_admit pinned near 1
    and its full demand, and the heavy channel reclaims the slack."""
    (row,) = rows
    return judge(
        BOUNDS[profile],
        {
            "fig18/in-quota-p-admit": row["p_admit_a"],
            "fig18/in-quota-p-admit-p1": row["p_admit_a_p1"],
            "fig18/in-quota-goodput-gbps": row["goodput_a_gbps"],
            # Heavy channel's goodput over the in-quota channel's.
            "fig18/heavy-reclaims": (
                row["goodput_b_gbps"] / max(row["goodput_a_gbps"], 1e-9)
            ),
        },
    )

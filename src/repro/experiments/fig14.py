"""Figure 14: baseline tail RNL as the input QoS_h-share is swept.

Without Aequitas, vary the QoS_h share of the all-to-all traffic (the
paper sweeps 5% to 70%; the paper profile stops at 60%) with QoS_m
pinned at 25% (remainder on QoS_l).  The QoS_h
tail grows with its share; the share at which it crosses the intended
SLO is the *maximal admissible traffic* for that SLO — the calibration
step an operator (and Figure 15) uses to pick SLO targets.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.qos import Priority
from repro.experiments.cluster import run_cluster
from repro.experiments.fig12 import make_config
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.stats.digest import completed_rpc_digest


PROFILES = {
    "paper": {
        "shares": [0.05, 0.15, 0.30, 0.45, 0.60],
        "num_hosts": 8,
        "duration_ms": 12.0,
        "warmup_ms": 4.0,
    },
    "fast": {
        "shares": [0.1, 0.3, 0.5],
        "num_hosts": 6,
        "duration_ms": 15.0,
        "warmup_ms": 5.0,
    },
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig14",
            {
                "qos_h_share": share,
                "num_hosts": spec["num_hosts"],
                "duration_ms": spec["duration_ms"],
                "warmup_ms": spec["warmup_ms"],
            },
        )
        for share in spec["shares"]
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    share = p["qos_h_share"]
    mix = {
        Priority.PC: share,
        Priority.NC: 0.25,
        Priority.BE: max(0.0, 1.0 - share - 0.25) or 1e-6,
    }
    cfg = make_config(
        "wfq",
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        priority_mix=mix,
        seed=seed,
    )
    result = run_cluster(cfg)
    return {
        "qos_h_share": share,
        "tail_h_us": result.rnl_tail_us(0, 99.9),
        "tail_m_us": result.rnl_tail_us(1, 99.9),
        "tail_l_us": result.rnl_tail_us(2, 99.9),
        "digest": completed_rpc_digest(result.metrics),
    }


def share_at_slo(rows: Sequence[Row], slo_us: float) -> float:
    """Interpolated QoS_h share where the QoS_h tail hits the SLO: the
    maximal admissible QoS_h traffic for that SLO."""
    ordered = sorted(rows, key=lambda r: r["qos_h_share"])
    points = [(r["qos_h_share"], r["tail_h_us"]) for r in ordered]
    prev_share, prev_tail = points[0]
    for share, tail_h in points[1:]:
        if prev_tail <= slo_us <= tail_h:
            if tail_h == prev_tail:
                return share
            frac = (slo_us - prev_tail) / (tail_h - prev_tail)
            return prev_share + frac * (share - prev_share)
        prev_share, prev_tail = share, tail_h
    return points[-1][0] if points[-1][1] <= slo_us else points[0][0]


def table(rows: Sequence[Row]) -> str:
    lines = [
        "Fig 14 — baseline (w/o Aequitas) tail RNL vs QoS_h-share",
        f"{'share(%)':>9} {'tail_h':>8} {'tail_m':>8} {'tail_l':>8}",
    ]
    for r in rows:
        lines.append(
            f"{100 * r['qos_h_share']:9.0f} {r['tail_h_us']:8.1f} "
            f"{r['tail_m_us']:8.1f} {r['tail_l_us']:8.1f}"
        )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 14, per profile.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig14/h-tail-growth": (">", 2.0),
        "fig14/admissible-share-min": (">=", 0.05),
        "fig14/admissible-share-max": ("<=", 0.7),
        "fig14/low-share-h-below-m": ("<=", 1.0),
        "fig14/low-share-m-below-l": ("<=", 1.0),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig14/h-tail-growth": (">", 1.0),
}


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Calibration shape: the baseline QoS_h tail grows with its share
    and crosses the 15 us SLO inside the swept range; at the lowest
    share the classes keep their order (no inversion)."""
    ordered = sorted(rows, key=lambda r: r["qos_h_share"])
    low = ordered[0]
    return judge(
        BOUNDS[profile],
        {
            "fig14/h-tail-growth": (
                ordered[-1]["tail_h_us"] / max(low["tail_h_us"], 1e-9)
            ),
            "fig14/admissible-share-min": share_at_slo(rows, 15.0),
            "fig14/admissible-share-max": share_at_slo(rows, 15.0),
            "fig14/low-share-h-below-m": low["tail_h_us"] / low["tail_m_us"],
            "fig14/low-share-m-below-l": low["tail_m_us"] / low["tail_l_us"],
        },
    )

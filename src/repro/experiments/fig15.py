"""Figure 15: admitted QoS-mix converges regardless of the input mix.

With SLOs fixed, run Aequitas over several very different input
QoS-mixes.  The admitted mix should converge near the SLO-determined
target in every case while the QoS_h tail stays at the SLO — Aequitas
"effectively controls the QoS-mix independent of the input
distribution", which is the antidote to the race-to-the-top.

Self-consistency corollary (also checked): when the input mix already
equals the target, almost nothing is downgraded.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.qos import Priority
from repro.experiments.cluster import run_cluster
from repro.experiments.fig12 import make_config
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.stats.digest import completed_rpc_digest


_INPUT_MIXES = (
    (0.25, 0.25, 0.50),
    (0.60, 0.30, 0.10),
    (0.50, 0.30, 0.20),
    (0.40, 0.40, 0.20),
)

_SLO_HIGH_US = 15.0

PROFILES = {
    "paper": {"num_hosts": 8, "duration_ms": 30.0, "warmup_ms": 15.0},
    "fast": {"num_hosts": 6, "duration_ms": 24.0, "warmup_ms": 12.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig15",
            {
                "input_mix": list(mix),
                "slo_high_us": _SLO_HIGH_US,
                "slo_med_us": 25.0,
                **spec,
            },
        )
        for mix in _INPUT_MIXES
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    mix = tuple(p["input_mix"])
    cfg = make_config(
        "aequitas",
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        priority_mix={Priority.PC: mix[0], Priority.NC: mix[1], Priority.BE: mix[2]},
        seed=seed,
        slo_high_us=p["slo_high_us"],
        slo_med_us=p["slo_med_us"],
    )
    result = run_cluster(cfg)
    admitted = result.admitted_mix()
    total_issued = max(result.metrics.issued_count, 1)
    return {
        "input_mix": list(mix),
        "admitted_mix": [admitted.get(q, 0.0) for q in (0, 1, 2)],
        "qos_h_tail_us": result.rnl_tail_us(0, 99.0),
        "downgrade_fraction": result.metrics.downgrades / total_issued,
        "digest": completed_rpc_digest(result.metrics),
    }


def admitted_spread(rows: Sequence[Row]) -> float:
    """Max-min of the admitted QoS_h share across input mixes — small
    means the admitted mix is input-independent."""
    shares = [r["admitted_mix"][0] for r in rows]
    return max(shares) - min(shares)


def table(rows: Sequence[Row]) -> str:
    lines = [
        f"Fig 15 — admitted QoS-mix vs input QoS-mix (SLO_h = {_SLO_HIGH_US:g} us)",
        f"{'input h/m/l':>16} {'admitted h/m/l':>18} {'tail_h':>7} {'downgr':>7}",
    ]
    for r in rows:
        inp = "/".join(f"{100 * v:.0f}" for v in r["input_mix"])
        adm = "/".join(f"{100 * v:.0f}" for v in r["admitted_mix"])
        lines.append(
            f"{inp:>16} {adm:>18} {r['qos_h_tail_us']:7.1f} "
            f"{100 * r['downgrade_fraction']:6.1f}%"
        )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 15, per profile.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig15/admitted-spread": ("<", 0.15),
        "fig15/self-consistent-downgrades": ("<", 0.05),
        "fig15/h-tail-over-slo": ("<", 1.5),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig15/admitted-spread": ("<=", 0.25),
    "fig15/self-consistent-downgrades": ("<=", 0.1),
}


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Race-to-the-top defusal: the admitted QoS_h share is (nearly)
    input-independent, an already-admissible input is left alone, and
    the QoS_h tail holds its SLO for every input mix."""
    return judge(
        BOUNDS[profile],
        {
            "fig15/admitted-spread": admitted_spread(rows),
            "fig15/self-consistent-downgrades": max(
                r["downgrade_fraction"] for r in rows if r["input_mix"][0] <= 0.30
            ),
            "fig15/h-tail-over-slo": max(
                r["qos_h_tail_us"] / _SLO_HIGH_US for r in rows
            ),
        },
    )

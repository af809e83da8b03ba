"""Figure 19: Aequitas versus Strict Priority Queuing under the race to
the top.

Fix QoS_m at 20% of traffic and sweep the QoS_h share from 50% to 80%
(applications "racing to the top").  SPQ has no admission: as more
traffic claims QoS_h, QoS_m is starved behind it and its tail explodes.
Aequitas downgrades the excess, keeping both SLO classes predictable.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.qos import Priority
from repro.experiments.cluster import run_cluster
from repro.experiments.fig12 import make_config
from repro.runner.point import Point, Row
from repro.stats.digest import completed_rpc_digest


PROFILES = {
    "paper": {
        "shares": [0.5, 0.6, 0.7, 0.8],
        "num_hosts": 8,
        "duration_ms": 30.0,
        "warmup_ms": 15.0,
    },
    "fast": {
        "shares": [0.5, 0.8],
        "num_hosts": 6,
        "duration_ms": 20.0,
        "warmup_ms": 10.0,
    },
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig19",
            {
                "qos_h_share": share,
                "scheme": scheme,
                "num_hosts": spec["num_hosts"],
                "duration_ms": spec["duration_ms"],
                "warmup_ms": spec["warmup_ms"],
            },
        )
        for share in spec["shares"]
        for scheme in ("aequitas", "spq")
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    share = p["qos_h_share"]
    mix = {
        Priority.PC: share,
        Priority.NC: 0.2,
        Priority.BE: max(1.0 - share - 0.2, 1e-6),
    }
    cfg = make_config(
        p["scheme"],
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        priority_mix=mix,
        seed=seed,
    )
    result = run_cluster(cfg)
    return {
        "qos_h_share": share,
        "scheme": p["scheme"],
        "tail_h_us": result.rnl_tail_us(0, 99.9),
        "tail_m_us": result.rnl_tail_us(1, 99.9),
        "digest": completed_rpc_digest(result.metrics),
    }


def table(rows: Sequence[Row]) -> str:
    lines = [
        "Fig 19 — Aequitas vs SPQ as QoS_h-share grows (tail RNL, us/MTU)",
        f"{'share(%)':>9} {'aeq_h':>7} {'aeq_m':>7} {'spq_h':>7} {'spq_m':>7}",
    ]
    shares = sorted({r["qos_h_share"] for r in rows})
    for share in shares:
        by = {r["scheme"]: r for r in rows if r["qos_h_share"] == share}
        aeq, spq = by["aequitas"], by["spq"]
        lines.append(
            f"{100 * share:9.0f} {aeq['tail_h_us']:7.1f} {aeq['tail_m_us']:7.1f} "
            f"{spq['tail_h_us']:7.1f} {spq['tail_m_us']:7.1f}"
        )
    lines.append("SLOs: QoS_h 15 us, QoS_m 25 us")
    return "\n".join(lines)


def check(rows: Sequence[Row], profile: str) -> List[str]:
    """Race-to-the-top shape: at the heaviest QoS_h share, SPQ starves
    QoS_m while Aequitas contains it."""
    failures: List[str] = []
    top = max(r["qos_h_share"] for r in rows)
    at_top = {r["scheme"]: r for r in rows if r["qos_h_share"] == top}
    if set(at_top) != {"aequitas", "spq"}:
        return [f"fig19: expected aequitas+spq rows at share {top:g}"]
    if not at_top["spq"]["tail_m_us"] > at_top["aequitas"]["tail_m_us"]:
        failures.append(
            f"fig19: at share {top:g}, SPQ QoS_m tail "
            f"({at_top['spq']['tail_m_us']:.1f} us) not worse than "
            f"Aequitas ({at_top['aequitas']['tail_m_us']:.1f} us)"
        )
    return failures

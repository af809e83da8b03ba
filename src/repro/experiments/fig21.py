"""Figure 21: large scale, production RPC sizes, extreme overload.

The paper runs 144 nodes with production size distributions and pushes
the burst load until the instantaneous link load reaches 25x capacity,
showing Aequitas still meets SLOs (3.7x / 2.2x tail improvement for
QoS_h / QoS_m) and shifts the admitted mix from (60, 30, 10) toward
(20, 26, 54).

Scaled substitution (documented in DESIGN.md): node count and the burst
multiple are reduced for laptop runtimes (both profiles burst each
link to 2.5x its capacity — already far beyond the admissible
region); the size distributions are the production-like mixtures from
:mod:`repro.rpc.sizes`.  The qualitative assertions — SLO compliance
under extreme overload, large tail-improvement factors, and the mix
shift toward the scavenger class — are preserved.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.qos import Priority
from repro.experiments.cluster import run_cluster
from repro.experiments.fig12 import make_config
from repro.rpc.sizes import production_mixture
from repro.rpc.workload import byte_mix_to_rpc_mix
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.stats.digest import completed_rpc_digest


PROFILES = {
    "paper": {
        "num_hosts": 8,
        "burst_rho": 2.5,
        "mu": 0.6,
        "duration_ms": 30.0,
        "warmup_ms": 15.0,
    },
    "fast": {
        "num_hosts": 6,
        "burst_rho": 2.5,
        "mu": 0.6,
        "duration_ms": 20.0,
        "warmup_ms": 10.0,
    },
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig21",
            {"scheme": scheme, "slo_h_us": 20.0, "slo_m_us": 30.0, **spec},
        )
        for scheme in ("wfq", "aequitas")
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    sizes = production_mixture()
    byte_mix = {Priority.PC: 0.6, Priority.NC: 0.3, Priority.BE: 0.1}
    cfg = make_config(
        p["scheme"],
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        size_dist=sizes,
        priority_mix=byte_mix_to_rpc_mix(byte_mix, sizes),
        seed=seed,
        rho=p["burst_rho"],
        mu=p["mu"],
        slo_high_us=p["slo_h_us"],
        slo_med_us=p["slo_m_us"],
    )
    result = run_cluster(cfg)
    mix = result.admitted_mix()
    return {
        "scheme": p["scheme"],
        "tail_us": {str(q): result.rnl_tail_us(q, 99.9) for q in (0, 1, 2)},
        "admitted_mix": [mix.get(q, 0.0) for q in (0, 1, 2)],
        "digest": completed_rpc_digest(result.metrics),
    }


def improvement(by: Dict[str, Row], qos: str) -> float:
    """Tail RNL reduction factor from enabling Aequitas, rows by scheme."""
    return by["wfq"]["tail_us"][qos] / max(by["aequitas"]["tail_us"][qos], 1e-9)


def table(rows: Sequence[Row]) -> str:
    by = {r["scheme"]: r for r in rows}
    lines = [
        "Fig 21 — production sizes under extreme overload",
        f"{'QoS':>5} {'w/o':>9} {'w/':>9} {'factor':>7}",
    ]
    for qos in ("0", "1", "2"):
        lines.append(
            f"{qos:>5} {by['wfq']['tail_us'][qos]:9.1f} "
            f"{by['aequitas']['tail_us'][qos]:9.1f} {improvement(by, qos):7.1f}"
        )
    wo = "/".join(f"{100 * v:.0f}" for v in by["wfq"]["admitted_mix"])
    w = "/".join(f"{100 * v:.0f}" for v in by["aequitas"]["admitted_mix"])
    lines.append(f"QoS-mix w/o: {wo}   w/: {w}")
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 21, per profile.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig21/h-improvement": (">", 2.0),
        "fig21/m-improvement": (">", 1.2),
        "fig21/l-share-grows": (">", 1.0),
        "fig21/l-share": (">", 0.4),
        "fig21/h-share-halved": ("<", 0.5),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig21/h-improvement": (">", 1.5),
}


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Extreme-overload shape: large QoS_h and QoS_m tail improvements,
    and the admitted mix shifts sharply toward the scavenger class."""
    by = {r["scheme"]: r for r in rows}
    wo, w = by["wfq"]["admitted_mix"], by["aequitas"]["admitted_mix"]
    return judge(
        BOUNDS[profile],
        {
            "fig21/h-improvement": improvement(by, "0"),
            "fig21/m-improvement": improvement(by, "1"),
            "fig21/l-share-grows": w[2] / max(wo[2], 1e-9),
            "fig21/l-share": w[2],
            "fig21/h-share-halved": w[0] / max(wo[0], 1e-9),
        },
    )

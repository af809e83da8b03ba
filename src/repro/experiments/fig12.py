"""Figure 12: cluster-wide per-QoS tail RNL, with and without Aequitas.

All-to-all cluster (the paper's 33-node setup, node count scaled by the
caller), input QoS-mix (0.6, 0.3, 0.1), burst pattern mu=0.8 / rho=1.4,
SLOs 15 us / 25 us per MTU.  Without admission control the QoS_h and
QoS_m tails blow far past the SLOs; with Aequitas they track the SLOs,
and — the non-zero-sum observation — QoS_l's tail *also* improves
because fewer RPCs contend overall (Little's law).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.core.qos import Priority
from repro.experiments.cluster import ClusterConfig, run_cluster
from repro.rpc.sizes import FixedSize, SizeDistribution
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.stats.digest import completed_rpc_digest


def make_config(
    scheme: str,
    num_hosts: int = 10,
    duration_ms: float = 40.0,
    warmup_ms: float = 20.0,
    size_dist: Optional[SizeDistribution] = None,
    priority_mix: Optional[Dict[Priority, float]] = None,
    seed: int = 12,
    **overrides: Any,
) -> ClusterConfig:
    """The shared Fig-12/13 cluster parameterization."""
    params: Dict[str, Any] = dict(
        scheme=scheme,
        num_hosts=num_hosts,
        slo_high_us=15.0,
        slo_med_us=25.0,
        mu=0.8,
        rho=1.4,
        period_us=400.0,
        priority_mix=priority_mix
        or {Priority.PC: 0.6, Priority.NC: 0.3, Priority.BE: 0.1},
        size_dist=size_dist or FixedSize(32 * 1024),
        duration_ms=duration_ms,
        warmup_ms=warmup_ms,
        seed=seed,
    )
    params.update(overrides)
    return ClusterConfig(**params)


PROFILES = {
    "paper": {"num_hosts": 8, "duration_ms": 30.0, "warmup_ms": 15.0},
    "fast": {"num_hosts": 6, "duration_ms": 24.0, "warmup_ms": 12.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point("fig12", {"scheme": scheme, **spec}) for scheme in ("wfq", "aequitas")
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    cfg = make_config(
        p["scheme"],
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        seed=seed,
    )
    result = run_cluster(cfg)
    return {
        "scheme": p["scheme"],
        "tail_us": {str(q): result.rnl_tail_us(q, 99.9) for q in (0, 1, 2)},
        "slo_us": {"0": 15.0, "1": 25.0},
        "digest": completed_rpc_digest(result.metrics),
    }


def _by_scheme(rows: Sequence[Row]) -> Dict[str, Row]:
    return {r["scheme"]: r for r in rows}


def table(rows: Sequence[Row]) -> str:
    by = _by_scheme(rows)
    lines = [
        "Fig 12 — per-QoS tail RNL (us/MTU), w/o vs w/ Aequitas",
        f"{'QoS':>6} {'SLO':>7} {'w/o':>9} {'w/':>9} {'factor':>7}",
    ]
    for qos in ("0", "1", "2"):
        slo = by["aequitas"]["slo_us"].get(qos)
        wo = by["wfq"]["tail_us"][qos]
        w = by["aequitas"]["tail_us"][qos]
        lines.append(
            f"{qos:>6} {slo if slo is not None else '-':>7} "
            f"{wo:9.1f} {w:9.1f} {wo / max(w, 1e-9):7.2f}"
        )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 12, per profile.
# Tails are per-MTU p99.9 over each class's SLO, or w/ over w/o.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig12/h-violated-without": (">", 1.0),
        "fig12/m-violated-without": (">", 1.0),
        "fig12/h-improves": ("<", 1.0),
        "fig12/m-improves": ("<", 1.0),
        "fig12/l-improves": ("<", 1.0),
        "fig12/h-tail-over-slo": ("<", 1.5),
        "fig12/m-tail-over-slo": ("<", 1.5),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig12/h-tail-over-slo": ("<=", 3.0),
    "fig12/m-tail-over-slo": ("<=", 3.0),
}


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Headline shape: both SLO classes blow their SLOs without
    admission control; enabling Aequitas pulls their tails down to the
    SLOs, and QoS_l improves too (not a zero-sum game)."""
    by = _by_scheme(rows)
    wo, w = by["wfq"]["tail_us"], by["aequitas"]["tail_us"]
    slo = by["aequitas"]["slo_us"]
    return judge(
        BOUNDS[profile],
        {
            "fig12/h-violated-without": wo["0"] / slo["0"],
            "fig12/m-violated-without": wo["1"] / slo["1"],
            "fig12/h-improves": w["0"] / wo["0"],
            "fig12/m-improves": w["1"] / wo["1"],
            "fig12/l-improves": w["2"] / wo["2"],
            "fig12/h-tail-over-slo": w["0"] / slo["0"],
            "fig12/m-tail-over-slo": w["1"] / slo["1"],
        },
    )

"""Figure 22: Aequitas versus pFabric, QJump, D3, PDQ, and Homa.

All six schemes run the same workload: all-to-all, production-like RPC
size distributions, input QoS-mix 50/30/20.  Three metrics per scheme:

* % of QoS_h traffic meeting its SLO *at its initially assigned QoS*
  (downgraded / terminated / unfinished = miss) — Aequitas should lead;
* network utilization (completed / offered payload) — D3 and PDQ lose
  roughly half to early termination ("better never than late");
* per-QoS tail RNL — pFabric/Homa favor small RPCs, so their large-RPC
  tails blow out even at high utilization.
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

COMPARED_SCHEMES = ("aequitas", "pfabric", "qjump", "d3", "pdq", "homa")


PROFILES = {
    "paper": {"num_hosts": 6, "duration_ms": 15.0, "warmup_ms": 6.0},
    "fast": {"num_hosts": 5, "duration_ms": 10.0, "warmup_ms": 4.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point("fig22", {"scheme": scheme, **spec}) for scheme in COMPARED_SCHEMES
    ]


def run_point(point: Point, seed: int) -> Row:
    """One scheme's run on the shared comparison workload."""
    p = point.params
    scheme = p["scheme"]
    sizes = production_mixture()
    overrides = {}
    if scheme == "aequitas":
        # Laptop-scaled AIMD so admission converges within the run
        # (the paper's constants need seconds; see DESIGN.md).
        overrides = dict(alpha=0.05, target_percentile=99.0)
    cfg = make_config(
        scheme,
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        size_dist=sizes,
        priority_mix=byte_mix_to_rpc_mix(
            {Priority.PC: 0.5, Priority.NC: 0.3, Priority.BE: 0.2}, sizes
        ),
        seed=seed,
        **overrides,
    )
    result = run_cluster(cfg)
    return {
        "scheme": scheme,
        "slo_met_h": result.slo_met_fraction(0),
        "utilization": result.goodput_fraction(),
        "tails_us": {
            str(q): result.rnl_tail_us(q, 99.9, normalized=False) for q in (0, 1, 2)
        },
        "terminated": result.metrics.terminated,
        "digest": completed_rpc_digest(result.metrics),
    }


def table(rows: Sequence[Row]) -> str:
    lines = [
        "Fig 22 — related-work comparison (production sizes, 50/30/20 mix)",
        f"{'scheme':>9} {'SLOmet_h':>9} {'util':>6} {'tail_h':>8} {'tail_m':>8} {'tail_l':>9}",
    ]
    for r in rows:
        t = r["tails_us"]
        lines.append(
            f"{r['scheme']:>9} {100 * r['slo_met_h']:8.1f}% {100 * r['utilization']:5.1f}% "
            f"{t['0']:8.0f} {t['1']:8.0f} {t['2']:9.0f}"
        )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 22, per profile.
# SLO-met argmax is deliberately not claimed: with the truncated size
# distribution that byte-weighted metric flatters SRPT schemes (see
# EXPERIMENTS.md).
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig22/aequitas-utilization": (">", 0.95),
        "fig22/aequitas-slo-met-h": (">", 0.4),
        "fig22/aequitas-lowest-h-tail": ("<=", 1e-09),
        "fig22/d3-utilization-cost": (">", 0.15),
        "fig22/d3-terminates": (">", 0.0),
        "fig22/pdq-utilization-cost": (">", 0.15),
        "fig22/pdq-terminates": (">", 0.0),
        "fig22/pfabric-h-tail-over-aequitas": (">", 2.0),
        "fig22/homa-h-tail-over-aequitas": (">", 2.0),
    },
}
BOUNDS["fast"] = BOUNDS["paper"]


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Comparison shape: Aequitas runs at full utilization with the
    lowest QoS_h tail of any scheme, the early-terminating deadline
    schemes pay in utilization, and the SRPT schemes blow out the QoS_h
    tail."""
    by = {r["scheme"]: r for r in rows}
    util = {s: r["utilization"] for s, r in by.items()}
    tail = {s: r["tails_us"]["0"] for s, r in by.items()}
    aeq_tail = tail.pop("aequitas")
    return judge(
        BOUNDS[profile],
        {
            "fig22/aequitas-utilization": util["aequitas"],
            "fig22/aequitas-slo-met-h": by["aequitas"]["slo_met_h"],
            # Aequitas' QoS_h tail minus the best other scheme's, in us.
            "fig22/aequitas-lowest-h-tail": aeq_tail - min(tail.values()),
            "fig22/d3-utilization-cost": util["aequitas"] - util["d3"],
            "fig22/d3-terminates": by["d3"]["terminated"],
            "fig22/pdq-utilization-cost": util["aequitas"] - util["pdq"],
            "fig22/pdq-terminates": by["pdq"]["terminated"],
            "fig22/pfabric-h-tail-over-aequitas": tail["pfabric"] / max(aeq_tail, 1e-9),
            "fig22/homa-h-tail-over-aequitas": tail["homa"] / max(aeq_tail, 1e-9),
        },
    )

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

from typing import List, Sequence

from repro.core.qos import Priority
from repro.experiments.cluster import run_cluster
from repro.experiments.fig12 import make_config
from repro.rpc.sizes import production_mixture
from repro.rpc.workload import byte_mix_to_rpc_mix
from repro.runner.point import Point, Row
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


def check(rows: Sequence[Row], profile: str) -> List[str]:
    """Comparison shape, mirroring the tier-1 benchmark's assertions:
    Aequitas runs at full utilization with the lowest QoS_h tail of any
    scheme, and the early-terminating deadline schemes pay in
    utilization.  (SLO-met argmax is deliberately not asserted — with
    the truncated size distribution that byte-weighted metric flatters
    SRPT schemes; see EXPERIMENTS.md.)"""
    by = {r["scheme"]: r for r in rows}
    failures: List[str] = []
    if "aequitas" not in by:
        return ["fig22: aequitas row missing"]
    aeq = by["aequitas"]
    if not aeq["utilization"] > 0.95:
        failures.append(
            f"fig22: Aequitas utilization {aeq['utilization']:.1%} not ~full"
        )
    if not aeq["slo_met_h"] > 0.4:
        failures.append(
            f"fig22: Aequitas SLO-met fraction {aeq['slo_met_h']:.1%} "
            "collapsed below 40%"
        )
    for scheme, row in by.items():
        if scheme == "aequitas":
            continue
        if aeq["tails_us"]["0"] > row["tails_us"]["0"] + 1e-9:
            failures.append(
                f"fig22: {scheme} beat Aequitas on the QoS_h tail "
                f"({row['tails_us']['0']:.0f} vs {aeq['tails_us']['0']:.0f} us)"
            )
    for scheme in ("d3", "pdq"):
        if scheme in by and not by[scheme]["utilization"] < (
            aeq["utilization"] - 0.15
        ):
            failures.append(
                f"fig22: {scheme} did not pay for early termination "
                f"({by[scheme]['utilization']:.1%} utilization)"
            )
    return failures

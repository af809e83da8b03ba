"""Figure 20: size-normalized SLOs across a non-uniform size mix.

Half the hosts issue 32 KB RPCs, the other half 64 KB.  Because the SLO
is specified per MTU and the multiplicative decrease is proportional to
RPC size, Aequitas treats a 16-MTU RPC like two 8-MTU RPCs, and both
size populations meet the same *normalized* SLO.  The table mirrors the
paper's: per-QoS normalized tails for all traffic and for each size
class, with and without Aequitas.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.experiments.cluster import ClusterConfig, run_cluster
from repro.experiments.fig12 import make_config
from repro.rpc.sizes import FixedSize
from repro.rpc.stack import RpcStack
from repro.rpc.workload import OpenLoopSource
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.sim.engine import Simulator, ns_from_ms
from repro.stats.digest import completed_rpc_digest
from repro.stats.summary import percentile

_SIZES = (32 * 1024, 64 * 1024)


def _mixed_size_traffic(
    sim: Simulator, stacks: List[RpcStack], cfg: ClusterConfig
) -> None:
    """Even hosts send 32 KB RPCs, odd hosts 64 KB, all-to-all."""
    host_ids = [s.host.host_id for s in stacks]
    for stack in stacks:
        size = _SIZES[stack.host.host_id % 2]
        dsts = [h for h in host_ids if h != stack.host.host_id]
        rng = random.Random(cfg.seed * 7919 + stack.host.host_id)
        OpenLoopSource(
            sim,
            stack,
            dsts,
            cfg.priority_mix,
            FixedSize(size),
            cfg.pattern,
            line_rate_bps=cfg.line_rate_bps,
            rng=rng,
            stop_ns=ns_from_ms(cfg.duration_ms),
        )


PROFILES = {
    "paper": {"num_hosts": 8, "duration_ms": 25.0, "warmup_ms": 12.0},
    "fast": {"num_hosts": 6, "duration_ms": 20.0, "warmup_ms": 10.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point("fig20", {"scheme": scheme, **spec}) for scheme in ("wfq", "aequitas")
    ]


def run_point(point: Point, seed: int) -> Row:
    """One scheme's run, reduced to per-(size-slice, QoS) tails."""
    p = point.params
    cfg = make_config(
        p["scheme"],
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        seed=seed,
        traffic_fn=_mixed_size_traffic,
    )
    result = run_cluster(cfg)
    warm = result.warmup_ns
    tails: Dict[str, Dict[str, float]] = {}
    for label, selector in (
        ("total", lambda rpc: True),
        ("32KB", lambda rpc: rpc.payload_bytes == _SIZES[0]),
        ("64KB", lambda rpc: rpc.payload_bytes == _SIZES[1]),
    ):
        per_qos = {}
        for qos in (0, 1, 2):
            samples = [
                rpc.rnl_ns / rpc.size_mtus
                for rpc in result.metrics.completed
                if rpc.qos == qos and rpc.created_ns >= warm and selector(rpc)
            ]
            per_qos[str(qos)] = percentile(samples, 99.9) / 1000.0
        tails[label] = per_qos
    return {
        "scheme": p["scheme"],
        "tails_us": tails,
        "digest": completed_rpc_digest(result.metrics),
    }


def table(rows: Sequence[Row]) -> str:
    by = {r["scheme"]: r for r in rows}
    lines = [
        "Fig 20 — normalized tail RNL (us/MTU) with mixed 32/64 KB RPCs",
        f"{'slice':>7} {'scheme':>9} {'qos_h':>7} {'qos_m':>7} {'qos_l':>8}",
    ]
    for size_label in ("total", "32KB", "64KB"):
        for scheme in ("wfq", "aequitas"):
            t = by[scheme]["tails_us"][size_label]
            lines.append(
                f"{size_label:>7} {scheme:>9} {t['0']:7.1f} {t['1']:7.1f} {t['2']:8.1f}"
            )
    lines.append("SLOs: 15/25 us per MTU")
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 20, per profile:
# normalized QoS_h tails over the 15 us/MTU SLO, or w/ over w/o.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig20/total-h-improves": ("<", 1.0),
        "fig20/h-tail-over-slo-32kb": ("<", 1.5),
        "fig20/h-tail-over-slo-64kb": ("<", 1.5),
        "fig20/h-vs-wfq-32kb": ("<=", 1.1),
        "fig20/h-vs-wfq-64kb": ("<=", 1.1),
        "fig20/size-ratio": ("<", 2.0),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig20/size-ratio": ("<=", 3.0),
}


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Size-normalization shape: Aequitas improves the overall QoS_h
    tail, meets the normalized SLO for both sizes, worsens neither on
    the baseline, and keeps the two sizes' normalized tails comparable."""
    by = {r["scheme"]: r for r in rows}
    wo, w = by["wfq"]["tails_us"], by["aequitas"]["tails_us"]
    small, large = w["32KB"]["0"], w["64KB"]["0"]
    return judge(
        BOUNDS[profile],
        {
            "fig20/total-h-improves": w["total"]["0"] / wo["total"]["0"],
            "fig20/h-tail-over-slo-32kb": small / 15.0,
            "fig20/h-tail-over-slo-64kb": large / 15.0,
            "fig20/h-vs-wfq-32kb": small / wo["32KB"]["0"],
            "fig20/h-vs-wfq-64kb": large / wo["64KB"]["0"],
            "fig20/size-ratio": max(small, large) / max(min(small, large), 1e-9),
        },
    )

"""Figure 24: Phase-1 production rollout — alignment alone already pays.

The paper's fleetwide Phase-1 deployment (priority->QoS alignment, no
admission control yet) drove RPC/QoS misalignment from up to 80%
to ~zero over five weeks and cut high-priority 99th-p RNL by up to 53%
across 50 sampled clusters (10% on average), with a few clusters
regressing slightly.

Substitution (no production fleet available): a Monte-Carlo ensemble of
simulated clusters.  Each cluster draws a random *misalignment matrix*
shaped like Figure 4 — a chunk of PC traffic riding QoS_m/QoS_l and a
large fraction of BE traffic riding QoS_h/QoS_m — and runs twice:
misaligned versus aligned (Phase 1), both *without* admission control.
Reported per cluster: the change in 99th-p RNL for PC-priority traffic.
The misalignment-over-time panel is generated from a staged rollout
schedule over the ensemble (clusters flip to aligned in waves), since
rollout pacing is an operational artifact, not a system property.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.qos import Priority
from repro.experiments.cluster import ClusterConfig, ClusterResult, run_cluster
from repro.experiments.fig12 import make_config
from repro.rpc.message import Rpc
from repro.rpc.sizes import FixedSize
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.stats.summary import percentile


class MisalignedMapper:
    """A Figure-4-shaped random priority->QoS mapping.

    PC mostly lands on QoS_h but leaks downward; BE leaks heavily
    upward (the "race to the top" steady state before Phase 1).
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self.table: Dict[Priority, Tuple[float, ...]] = {
            Priority.PC: _jitter(rng, (0.80, 0.15, 0.05)),
            Priority.NC: _jitter(rng, (0.25, 0.55, 0.20)),
            Priority.BE: _jitter(rng, (0.40, 0.10, 0.50)),
        }

    def __call__(self, rpc: Rpc) -> int:
        split = self.table[rpc.priority]
        roll = self._rng.random()
        if roll < split[0]:
            return 0
        if roll < split[0] + split[1]:
            return 1
        return 2


def make_misaligned_mapper(rng: random.Random) -> MisalignedMapper:
    """One random mapper draw (kept as a factory for ensemble loops)."""
    return MisalignedMapper(rng)


def _jitter(
    rng: random.Random, base: Tuple[float, float, float]
) -> Tuple[float, ...]:
    vals = [max(0.02, b + rng.uniform(-0.1, 0.1)) for b in base]
    total = sum(vals)
    return tuple(v / total for v in vals)


def misalignment_fraction(mapper: MisalignedMapper) -> float:
    """Traffic-weighted fraction of RPCs mapped off their aligned QoS."""
    aligned = {Priority.PC: 0, Priority.NC: 1, Priority.BE: 2}
    total = 0.0
    for prio, split in mapper.table.items():
        total += 1.0 - split[aligned[prio]]
    return total / len(mapper.table)


def _pc_tail(result: ClusterResult, pctl: float) -> float:
    samples = [
        rpc.rnl_ns / rpc.size_mtus
        for rpc in result.metrics.completed
        if rpc.priority == Priority.PC and rpc.created_ns >= result.warmup_ns
    ]
    return percentile(samples, pctl) / 1000.0


def _run_misaligned(cfg: ClusterConfig, qos_mapper: MisalignedMapper) -> ClusterResult:
    from repro.experiments.cluster import attach_traffic, build_cluster
    from repro.sim.engine import ns_from_ms

    result = build_cluster(cfg)
    for stack in result.stacks:
        stack.qos_mapper = qos_mapper
    attach_traffic(result)
    result.sim.run(until=ns_from_ms(cfg.duration_ms))
    return result


# One point per ensemble member: each runs its cluster twice
# (misaligned, then Phase-1 aligned) and reports the PC-tail change.
PROFILES = {
    "paper": {
        "num_clusters": 5,
        "num_hosts": 5,
        "duration_ms": 10.0,
        "warmup_ms": 4.0,
    },
    "fast": {
        "num_clusters": 3,
        "num_hosts": 5,
        "duration_ms": 8.0,
        "warmup_ms": 3.0,
    },
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig24",
            {
                "cluster_id": cid,
                "num_hosts": spec["num_hosts"],
                "duration_ms": spec["duration_ms"],
                "warmup_ms": spec["warmup_ms"],
            },
        )
        for cid in range(spec["num_clusters"])
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    mapper = make_misaligned_mapper(random.Random(seed * 1009 + 1))
    mix = {Priority.PC: 0.35, Priority.NC: 0.35, Priority.BE: 0.30}
    outcomes = {}
    for phase, qos_mapper in (("before", mapper), ("after", None)):
        cfg = make_config(
            "wfq",
            num_hosts=p["num_hosts"],
            duration_ms=p["duration_ms"],
            warmup_ms=p["warmup_ms"],
            priority_mix=mix,
            size_dist=FixedSize(32 * 1024),
            seed=seed,
        )
        result = run_cluster(cfg) if qos_mapper is None else _run_misaligned(
            cfg, qos_mapper
        )
        outcomes[phase] = _pc_tail(result, 99.0)
    change_pct = (
        100.0
        * (outcomes["after"] - outcomes["before"])
        / max(outcomes["before"], 1e-9)
    )
    return {
        "cluster_id": p["cluster_id"],
        "misalignment_before": misalignment_fraction(mapper),
        "pc_tail_before_us": outcomes["before"],
        "pc_tail_after_us": outcomes["after"],
        "rnl_change_pct": change_pct,
    }


def mean_change_pct(rows: Sequence[Row]) -> float:
    """Ensemble-mean change of the PC 99p RNL (negative = improvement)."""
    return sum(r["rnl_change_pct"] for r in rows) / len(rows)


def rollout_weeks(rows: Sequence[Row]) -> List[Tuple[int, float]]:
    """(week, fleet misalignment %) of a staged rollout in which the
    clusters flip to aligned in weekly waves over five weeks."""
    weeks = []
    for week in range(6):
        flipped = min(len(rows), round(len(rows) * week / 5.0))
        remaining = rows[flipped:]
        fleet = 100.0 * sum(r["misalignment_before"] for r in remaining) / len(rows)
        weeks.append((week, fleet))
    return weeks


def table(rows: Sequence[Row]) -> str:
    lines = [
        "Fig 24 — Phase-1 alignment across a simulated cluster ensemble",
        f"{'cluster':>8} {'misalign':>9} {'before':>8} {'after':>8} {'change':>8}",
    ]
    for r in rows:
        lines.append(
            f"{r['cluster_id']:>8} {100 * r['misalignment_before']:8.0f}% "
            f"{r['pc_tail_before_us']:8.1f} {r['pc_tail_after_us']:8.1f} "
            f"{r['rnl_change_pct']:+7.1f}%"
        )
    best = min(r["rnl_change_pct"] for r in rows)
    lines.append(
        f"mean 99p PC-RNL change: {mean_change_pct(rows):+.1f}% (best {best:+.1f}%)"
    )
    lines.append(
        "rollout: " + ", ".join(f"wk{w}={m:.0f}%" for w, m in rollout_weeks(rows))
    )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 24, per profile.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig24/best-change-pct": ("<", 0.0),
        "fig24/mean-change-pct": ("<", -10.0),
        "fig24/clusters-not-improved": ("<=", 1.0),
        "fig24/final-misalignment-pct": ("==", 0.0),
        "fig24/initial-misalignment-pct": (">", 20.0),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig24/mean-change-pct": ("<=", 10.0),
}


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Phase-1 shape: alignment alone helps — the ensemble improves on
    average, (almost) every cluster improves, and the staged rollout
    ends at zero misalignment."""
    changes = [r["rnl_change_pct"] for r in rows]
    weeks = rollout_weeks(rows)
    return judge(
        BOUNDS[profile],
        {
            "fig24/best-change-pct": min(changes),
            "fig24/mean-change-pct": mean_change_pct(rows),
            "fig24/clusters-not-improved": sum(1 for c in changes if c >= 0),
            "fig24/final-misalignment-pct": weeks[-1][1],
            "fig24/initial-misalignment-pct": weeks[0][1],
        },
    )

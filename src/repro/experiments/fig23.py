"""Figure 23: the testbed experiment, reproduced in simulation.

The paper's prototype runs on 20 machines behind one switch with ~10
configurable WFQ queues, weights 8:4:1, all-to-all 32 KB WRITEs, input
QoS-mix (0.5, 0.35, 0.15) and SLOs chosen for a target mix of
(0.2, 0.3, 0.5).  RNL is reported *normalized to the RNL observed when
the input mix equals the target mix* — we reproduce that normalization
by running a third, reference simulation at the target mix.

Substitution: no 20-machine testbed exists here, so the same topology
and workload run on the packet simulator (DESIGN.md notes Aequitas'
logic sits above the packet layer, so the admission dynamics are the
same code path as the prototype's).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.qos import Priority
from repro.experiments.cluster import run_cluster
from repro.experiments.fig12 import make_config
from repro.rpc.sizes import FixedSize
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.stats.digest import completed_rpc_digest


# Each point is one of the figure's three runs; the reference run (input
# mix = target mix, no admission) supplies the normalization baseline.
_ROLES = (
    ("reference", "wfq", (0.2, 0.3, 0.5)),
    ("without", "wfq", (0.5, 0.35, 0.15)),
    ("with", "aequitas", (0.5, 0.35, 0.15)),
)

PROFILES = {
    "paper": {"num_hosts": 8, "duration_ms": 25.0, "warmup_ms": 12.0},
    "fast": {"num_hosts": 6, "duration_ms": 20.0, "warmup_ms": 10.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig23",
            {"role": role, "scheme": scheme, "mix": list(mix), **spec},
        )
        for role, scheme, mix in _ROLES
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    mix = p["mix"]
    cfg = make_config(
        p["scheme"],
        num_hosts=p["num_hosts"],
        duration_ms=p["duration_ms"],
        warmup_ms=p["warmup_ms"],
        priority_mix={Priority.PC: mix[0], Priority.NC: mix[1], Priority.BE: mix[2]},
        size_dist=FixedSize(32 * 1024),
        seed=seed,
    )
    result = run_cluster(cfg)
    admitted = result.admitted_mix()
    return {
        "role": p["role"],
        "tail_us": {str(q): result.rnl_tail_us(q, 99.9) for q in (0, 1, 2)},
        "admitted_mix": [admitted.get(q, 0.0) for q in (0, 1, 2)],
        "digest": completed_rpc_digest(result.metrics),
    }


def normalized_tails(by: Dict[str, Row], role: str) -> Dict[str, float]:
    """A role's per-QoS tail RNL relative to the reference run's."""
    return {
        q: tail / max(by["reference"]["tail_us"][q], 1e-9)
        for q, tail in by[role]["tail_us"].items()
    }


def table(rows: Sequence[Row]) -> str:
    by = {r["role"]: r for r in rows}
    wo_norm = normalized_tails(by, "without")
    w_norm = normalized_tails(by, "with")
    lines = [
        "Fig 23 — simulated testbed: normalized tail RNL and QoS-mix",
        f"{'QoS':>5} {'w/o':>7} {'w/':>7}",
    ]
    for qos in ("0", "1", "2"):
        lines.append(f"{qos:>5} {wo_norm[qos]:7.1f} {w_norm[qos]:7.1f}")
    wo, w, tgt = (
        "/".join(f"{100 * v:.0f}" for v in mix)
        for mix in (
            by["without"]["admitted_mix"],
            by["with"]["admitted_mix"],
            _ROLES[0][2],
        )
    )
    lines.append(f"mix w/o: {wo}  w/: {w}  target: {tgt}")
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 23, per profile:
# tails normalized to the reference run, or w/ over w/o.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig23/h-improves": ("<", 1.0),
        "fig23/m-improves": ("<", 1.0),
        "fig23/h-vs-reference": ("<", 5.0),
        "fig23/h-share-drops": ("<", 1.0),
        "fig23/h-share-toward-target": ("<", 1.0),
    },
}
BOUNDS["fast"] = BOUNDS["paper"]


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Testbed shape: Aequitas pulls the normalized QoS_h and QoS_m
    tails toward the reference run's level, and moves the admitted mix
    from the input toward the target."""
    by = {r["role"]: r for r in rows}
    wo_norm = normalized_tails(by, "without")
    w_norm = normalized_tails(by, "with")
    target_h, input_h = _ROLES[0][2][0], _ROLES[2][2][0]
    with_h = by["with"]["admitted_mix"][0]
    return judge(
        BOUNDS[profile],
        {
            "fig23/h-improves": w_norm["0"] / wo_norm["0"],
            "fig23/m-improves": w_norm["1"] / wo_norm["1"],
            "fig23/h-vs-reference": w_norm["0"],
            "fig23/h-share-drops": with_h / max(by["without"]["admitted_mix"][0], 1e-9),
            # Distance to the target over the input's distance to it.
            "fig23/h-share-toward-target": (
                abs(with_h - target_h) / abs(input_h - target_h)
            ),
        },
    )

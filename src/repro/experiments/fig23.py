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

from typing import Dict, List, Sequence

from repro.core.qos import Priority
from repro.experiments.cluster import run_cluster
from repro.experiments.fig12 import make_config
from repro.rpc.sizes import FixedSize
from repro.runner.point import Point, Row
from repro.stats.digest import completed_rpc_digest


# Each point is one of the figure's three runs; the reference run (input
# mix = target mix, no admission) supplies the normalization baseline.
_ROLES = (
    ("reference", "wfq", (0.2, 0.3, 0.5)),
    ("without", "wfq", (0.5, 0.35, 0.15)),
    ("with", "aequitas", (0.5, 0.35, 0.15)),
)

PROFILES = {
    "paper": {"num_hosts": 10, "duration_ms": 30.0, "warmup_ms": 15.0},
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


def check(rows: Sequence[Row], profile: str) -> List[str]:
    """Testbed shape: Aequitas pulls the normalized QoS_h tail toward
    the reference run's level."""
    by = {r["role"]: r for r in rows}
    if set(by) != {"reference", "without", "with"}:
        return [f"fig23: expected reference/without/with rows, got {sorted(by)}"]
    failures: List[str] = []
    wo_norm = normalized_tails(by, "without")["0"]
    w_norm = normalized_tails(by, "with")["0"]
    if not w_norm < wo_norm:
        failures.append(
            f"fig23: normalized QoS_h tail did not improve "
            f"({wo_norm:.1f}x -> {w_norm:.1f}x of reference)"
        )
    return failures

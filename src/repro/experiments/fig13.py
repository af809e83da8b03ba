"""Figure 13: outstanding RPCs per switch port, before/after Aequitas.

Why Aequitas is not a zero-sum game: with admission control, QoS_h+QoS_m
carry fewer concurrent RPCs (they finish faster), and the *decrease* in
outstanding high/medium RPCs outweighs the increase in QoS_l, so even
the scavenger class sees less contention at the tail (Little's law).

We track, per destination host (i.e. per last-hop switch port), the
number of issued-but-incomplete RPCs split into the QoS_h+QoS_m group
and the QoS_l group, sampled on a fixed cadence; the result is the CDF
across (port, sample) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.experiments.cluster import attach_traffic, build_cluster
from repro.experiments.fig12 import make_config
from repro.rpc.message import Rpc
from repro.runner.point import Point, Row
from repro.sim.engine import ns_from_ms, ns_from_us
from repro.stats.summary import percentile


@dataclass
class OutstandingTrace:
    """Samples of outstanding-RPC counts pooled over switch ports."""

    high_medium: List[int]
    low: List[int]


def _run_with_tracking(
    scheme: str,
    num_hosts: int,
    duration_ms: float,
    warmup_ms: float,
    sample_us: float,
    seed: int,
) -> OutstandingTrace:
    cfg = make_config(scheme, num_hosts=num_hosts, duration_ms=duration_ms,
                      warmup_ms=warmup_ms, seed=seed)
    result = build_cluster(cfg)
    sim = result.sim

    outstanding_hm: Dict[int, int] = {h: 0 for h in range(num_hosts)}
    outstanding_l: Dict[int, int] = {h: 0 for h in range(num_hosts)}

    def on_issue(rpc: Rpc) -> None:
        if rpc.qos_run in (0, 1):
            outstanding_hm[rpc.dst] += 1
        else:
            outstanding_l[rpc.dst] += 1

    def on_complete(rpc: Rpc) -> None:
        if rpc.qos_run in (0, 1):
            outstanding_hm[rpc.dst] -= 1
        else:
            outstanding_l[rpc.dst] -= 1

    result.metrics.on_issue_hook = on_issue
    result.metrics.on_complete_hook = on_complete

    samples_hm: List[int] = []
    samples_l: List[int] = []
    interval = ns_from_us(sample_us)
    warmup_ns = ns_from_ms(warmup_ms)

    def sample() -> None:
        if sim.now >= warmup_ns:
            samples_hm.extend(outstanding_hm.values())
            samples_l.extend(outstanding_l.values())
        sim.post(interval, sample)

    sim.post(interval, sample)
    attach_traffic(result)
    sim.run(until=ns_from_ms(duration_ms))
    return OutstandingTrace(high_medium=samples_hm, low=samples_l)


PROFILES = {
    "paper": {"num_hosts": 10, "duration_ms": 40.0, "warmup_ms": 20.0},
    "fast": {"num_hosts": 6, "duration_ms": 24.0, "warmup_ms": 12.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point("fig13", {"scheme": scheme, "sample_us": 100.0, **spec})
        for scheme in ("wfq", "aequitas")
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    trace = _run_with_tracking(
        p["scheme"],
        p["num_hosts"],
        p["duration_ms"],
        p["warmup_ms"],
        p["sample_us"],
        seed,
    )
    return {
        "scheme": p["scheme"],
        "p99_high_medium": percentile(trace.high_medium, 99.0),
        "p99_low": percentile(trace.low, 99.0),
        "samples": len(trace.high_medium),
    }


def table(rows: Sequence[Row]) -> str:
    by = {r["scheme"]: r for r in rows}
    wo, w = by["wfq"], by["aequitas"]
    return "\n".join(
        [
            "Fig 13 — p99 outstanding RPCs per switch port",
            f"{'group':>8} {'w/o':>8} {'w/':>8}",
            f"{'h+m':>8} {wo['p99_high_medium']:8.1f} {w['p99_high_medium']:8.1f}",
            f"{'l':>8} {wo['p99_low']:8.1f} {w['p99_low']:8.1f}",
        ]
    )


def check(rows: Sequence[Row], profile: str) -> List[str]:
    """Little's-law shape: admission control cuts outstanding QoS_h+m
    RPCs while the scavenger class absorbs the downgrades."""
    by = {r["scheme"]: r for r in rows}
    if set(by) != {"wfq", "aequitas"}:
        return [f"fig13: expected wfq+aequitas rows, got {sorted(by)}"]
    failures: List[str] = []
    if not by["aequitas"]["p99_high_medium"] < by["wfq"]["p99_high_medium"]:
        failures.append(
            "fig13: outstanding QoS_h+m did not drop with Aequitas "
            f"({by['wfq']['p99_high_medium']:.1f} -> "
            f"{by['aequitas']['p99_high_medium']:.1f})"
        )
    if not by["aequitas"]["p99_low"] > by["wfq"]["p99_low"]:
        failures.append(
            "fig13: outstanding QoS_l did not grow with Aequitas "
            "(downgrades should queue there)"
        )
    return failures

"""N-QoS generalization: Aequitas over more than three classes.

The paper notes the design "organically extends to larger numbers of
QoS priority classes" and leaves the closed-form delay equations for
arbitrary N as an open question.  This experiment exercises the
machinery end to end with five WFQ classes (four SLO-carrying + one
scavenger): the fluid model supplies the admissible mix, and the
admission controller keeps each SLO class at its target under
overload, confirming nothing in the implementation is hard-wired to
N = 3.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence

from repro.analysis.fluid import simulate_fluid
from repro.runner.point import Point, Row
from repro.core.admission import AdmissionParams
from repro.core.qos import Priority, QoSConfig
from repro.core.slo import SLO, SLOMap
from repro.net.topology import build_star, wfq_factory
from repro.rpc.message import Rpc
from repro.rpc.sizes import FixedSize
from repro.rpc.stack import MetricsCollector, RpcStack
from repro.sim.engine import Simulator, ns_from_ms, ns_from_us
from repro.stats.summary import percentile
from repro.transport.reliable import TransportConfig, TransportEndpoint
from repro.transport.swift import SwiftCC, SwiftParams

FIVE_QOS_WEIGHTS = (16, 8, 4, 2, 1)
#: Per-MTU SLO targets (us) of the four SLO-carrying classes.
SLO_TARGETS_US = {0: 10.0, 1: 15.0, 2: 25.0, 3: 40.0}


def _roll_mapper(
    offered: Sequence[float], rng: random.Random
) -> Callable[[Rpc], int]:
    def mapper(rpc: Rpc) -> int:
        roll = rng.random()
        acc = 0.0
        for level, frac in enumerate(offered):
            acc += frac
            if roll < acc:
                return level
        return len(offered) - 1

    return mapper


PROFILES = {
    "paper": {"num_hosts": 4, "duration_ms": 25.0, "warmup_ms": 12.0},
    "fast": {"num_hosts": 4, "duration_ms": 15.0, "warmup_ms": 7.0},
}


def sweep(profile: str = "paper") -> List[Point]:
    return [Point("nqos", dict(PROFILES[profile]))]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    num_hosts = p["num_hosts"]
    weights = FIVE_QOS_WEIGHTS
    qos_config = QoSConfig(weights)
    slo_map = SLOMap(
        {
            q: SLO(ns_from_us(t), target_percentile=99.0)
            for q, t in SLO_TARGETS_US.items()
        },
        qos_config,
    )

    sim = Simulator()
    net = build_star(sim, num_hosts, wfq_factory(weights))
    config = TransportConfig(
        cc_factory=lambda: SwiftCC(SwiftParams(target_delay_ns=25_000)),
        ack_bypass=True,
    )
    endpoints = [TransportEndpoint(sim, h, config) for h in net.hosts]
    for a in endpoints:
        for b in endpoints:
            if a is not b:
                a.register_peer(b)
    metrics = MetricsCollector()
    stacks = [
        RpcStack(sim, net.hosts[i], endpoints[i], slo_map,
                 AdmissionParams(alpha=0.05), metrics, seed=seed)
        for i in range(num_hosts)
    ]

    # Top-heavy offered mix across five classes: overload the top two.
    offered = (0.35, 0.25, 0.2, 0.1, 0.1)
    rng = random.Random(seed)
    size = FixedSize(32 * 1024)
    stop_ns = ns_from_ms(p["duration_ms"])

    def issue_loop(stack: RpcStack, dsts: List[int]) -> None:
        def issue_one() -> None:
            if sim.now >= stop_ns:
                return
            dst = dsts[rng.randrange(len(dsts))]
            # The per-stack qos_mapper draws the requested QoS level, so
            # the Priority argument is a dead placeholder in this
            # N-QoS setting.
            stack.issue(dst, Priority.BE, size.sample(rng))
            sim.post(max(1, int(rng.expovariate(1.0) * gap_ns)), issue_one)

        sim.post(1, issue_one)

    # Per-host load 0.9: mean gap between 32 KB RPCs.
    gap_ns = int(32 * 1024 * 8 / (0.9 * 100e9) * 1e9)
    host_ids = [h.host_id for h in net.hosts]
    for stack in stacks:
        # Direct QoS selection: bypass the priority mapping via mapper.
        stack.qos_mapper = _roll_mapper(offered, random.Random(seed + stack.host.host_id))
        issue_loop(stack, [h for h in host_ids if h != stack.host.host_id])

    sim.run(until=stop_ns)

    warm = ns_from_ms(p["warmup_ms"])
    fluid = simulate_fluid(list(offered), weights, mu=0.9, rho=1.2)
    return {
        "weights": list(weights),
        "tails_us": {
            str(q): percentile(metrics.normalized_rnl_ns(q, since_ns=warm), 99.0)
            / 1000.0
            for q in range(len(weights))
        },
        "admitted_mix": {
            str(q): v for q, v in metrics.admitted_mix(since_ns=warm).items()
        },
        "fluid_delays": list(fluid.delays),
    }


def table(rows: Sequence[Row]) -> str:
    (row,) = rows
    lines = [
        f"N-QoS experiment — weights {tuple(row['weights'])}",
        f"{'QoS':>4} {'SLO(us)':>8} {'tail(us)':>9} {'share':>7}",
    ]
    for qos in range(len(row["weights"])):
        slo = SLO_TARGETS_US.get(qos)
        lines.append(
            f"{qos:>4} {slo if slo is not None else '-':>8} "
            f"{row['tails_us'].get(str(qos), float('nan')):9.1f} "
            f"{row['admitted_mix'].get(str(qos), 0.0):6.1%}"
        )
    return "\n".join(lines)


def check(rows: Sequence[Row], profile: str) -> List[str]:
    """N-QoS shape: five classes all carry traffic with finite,
    positive tails — nothing in the stack is hard-wired to N = 3."""
    (row,) = rows
    failures: List[str] = []
    for qos, tail in row["tails_us"].items():
        if not tail > 0.0 or tail != tail or tail == float("inf"):
            failures.append(f"nqos: QoS {qos} tail is degenerate ({tail})")
    mix_total = sum(row["admitted_mix"].values())
    if not 0.9 <= mix_total <= 1.1:
        failures.append(f"nqos: admitted mix sums to {mix_total:.2f}, expected ~1")
    if len(row["weights"]) != 5:
        failures.append(f"nqos: expected 5 QoS classes, got {len(row['weights'])}")
    return failures

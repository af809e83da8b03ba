"""Figure 17 (and the machinery for Figs 18/28/29): AIMD fairness.

Two RPC channels from different hosts target the same server; Channel A
requests 40% of its line-rate RPC stream on QoS_h, Channel B 80%.  With
a strict QoS_h SLO the channels must share the admissible QoS_h
capacity; fairness means they converge to *equal admitted throughput*,
which requires *different* admit probabilities (the constant-decrement,
RPC-clocked MD makes a heavier channel decrease faster — §5.1).

The run records per-channel admit-probability and QoS_h-goodput traces,
from which convergence time (§6.6) and fairness gaps are computed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.convergence import convergence_time_ns, steady_value
from repro.core.qos import Priority
from repro.experiments.cluster import ClusterConfig, build_cluster
from repro.rpc.sizes import FixedSize
from repro.rpc.workload import OpenLoopSource, steady_pattern
from repro.runner.point import Bound, Claim, Point, Row, Rows, judge
from repro.sim.engine import ns_from_ms, ns_from_us
from repro.stats.digest import completed_rpc_digest
from repro.stats.sampler import PeriodicSampler
from repro.stats.summary import percentile, relative_gap
from repro.transport.reliable import Flow


@dataclass
class ChannelTrace:
    qos_h_fraction: float
    p_admit: List[Tuple[int, float]]
    goodput_gbps: List[Tuple[int, float]]

    def steady_p_admit(self) -> float:
        return steady_value(self.p_admit)

    def steady_goodput_gbps(self) -> float:
        return steady_value(self.goodput_gbps)

    def p_admit_percentile(self, pctl: float) -> float:
        return percentile([v for _, v in self.p_admit], pctl)


@dataclass
class FairnessResult:
    channel_a: ChannelTrace
    channel_b: ChannelTrace
    beta: float
    alpha: float
    # The run's MetricsCollector, for determinism digests; excluded from
    # equality so older call sites are unaffected.
    metrics: Optional[object] = field(default=None, compare=False, repr=False)

    def throughput_gap(self) -> float:
        """Relative gap between the channels' steady QoS_h goodput."""
        return relative_gap(
            self.channel_a.steady_goodput_gbps(), self.channel_b.steady_goodput_gbps()
        )

    def convergence_ms(self, tolerance: float = 0.15) -> Optional[float]:
        """Time until both channels' QoS_h goodput settles (§6.6).

        Convergence is judged on the *running time-average* of goodput
        rather than the instantaneous admit probability: AIMD saws
        around its operating point by design (the faster alpha used for
        laptop-scale runs makes the sawtooth proportionally larger), so
        the meaningful convergence notion is when the average admitted
        rate stops drifting.
        """
        times = []
        for tr in (self.channel_a, self.channel_b):
            running: List[Tuple[int, float]] = []
            total = 0.0
            for i, (t, v) in enumerate(tr.goodput_gbps):
                total += v
                running.append((t, total / (i + 1)))
            t = convergence_time_ns(running, tolerance=tolerance, smooth_window=1)
            if t is None:
                return None
            times.append(t)
        return max(times) / 1e6

    def summary(self) -> Row:
        """Both channels' settled figures: a fig17 row minus its digest,
        which :func:`table` prints."""
        a, b = self.channel_a, self.channel_b
        return {
            "share_a": a.qos_h_fraction,
            "share_b": b.qos_h_fraction,
            "p_admit_a": a.steady_p_admit(),
            "p_admit_b": b.steady_p_admit(),
            "goodput_a_gbps": a.steady_goodput_gbps(),
            "goodput_b_gbps": b.steady_goodput_gbps(),
            "throughput_gap": self.throughput_gap(),
            "convergence_ms": self.convergence_ms(),
        }


def run_two_channels(
    share_a: float = 0.4,
    share_b: float = 0.8,
    slo_high_us: float = 15.0,
    alpha: float = 0.05,
    beta: float = 0.01,
    duration_ms: float = 60.0,
    sample_us: float = 500.0,
    rpc_kb: int = 32,
    seed: int = 17,
) -> FairnessResult:
    """The §6.5 two-channel microbenchmark (server = host 2)."""
    cfg = ClusterConfig(
        scheme="aequitas",
        num_hosts=3,
        slo_high_us=slo_high_us,
        slo_med_us=slo_high_us + 10.0,
        target_percentile=99.0,
        alpha=alpha,
        beta=beta,
        size_dist=FixedSize(rpc_kb * 1024),
        duration_ms=duration_ms,
        warmup_ms=duration_ms / 3.0,
        seed=seed,
    )
    result = build_cluster(cfg)
    sim = result.sim
    shares = (share_a, share_b)
    traces: List[ChannelTrace] = []
    stop_ns = ns_from_ms(duration_ms)

    for idx, qos_h_share in enumerate(shares):
        stack = result.stacks[idx]
        rng = random.Random(seed * 101 + idx)
        OpenLoopSource(
            sim,
            stack,
            [2],
            {Priority.PC: qos_h_share, Priority.BE: 1.0 - qos_h_share},
            cfg.size_dist,
            steady_pattern(1.0, period_ns=cfg.pattern.period_ns),
            line_rate_bps=cfg.line_rate_bps,
            rng=rng,
            stop_ns=stop_ns,
        )
        controller = stack.registry.controller(2)
        p_sampler = PeriodicSampler(
            sim, ns_from_us(sample_us), lambda c=controller: c.p_admit(0)
        )
        flow = stack.endpoint.flow_to(2, 0)
        state = {"last": 0}

        def goodput_probe(
            flow: Flow = flow,
            state: Dict[str, int] = state,
            interval_ns: int = ns_from_us(sample_us),
        ) -> float:
            delta = flow.acked_payload_bytes - state["last"]
            state["last"] = flow.acked_payload_bytes
            return delta * 8.0 / interval_ns  # Gbps

        g_sampler = PeriodicSampler(sim, ns_from_us(sample_us), goodput_probe)
        traces.append(
            ChannelTrace(qos_h_fraction=qos_h_share, p_admit=p_sampler.samples,
                         goodput_gbps=g_sampler.samples)
        )

    sim.run(until=stop_ns)
    return FairnessResult(
        channel_a=traces[0],
        channel_b=traces[1],
        beta=beta,
        alpha=alpha,
        metrics=result.metrics,
    )


PROFILES = {
    "paper": {"duration_ms": 100.0},
    "fast": {"duration_ms": 50.0},
}


_ALPHA, _BETA = 0.05, 0.01


def sweep(profile: str = "paper") -> List[Point]:
    spec = PROFILES[profile]
    return [
        Point(
            "fig17",
            {
                "share_a": 0.4,
                "share_b": 0.8,
                "alpha": _ALPHA,
                "beta": _BETA,
                "duration_ms": spec["duration_ms"],
            },
        )
    ]


def run_point(point: Point, seed: int) -> Row:
    p = point.params
    result = run_two_channels(
        share_a=p["share_a"],
        share_b=p["share_b"],
        alpha=p["alpha"],
        beta=p["beta"],
        duration_ms=p["duration_ms"],
        seed=seed,
    )
    return {**result.summary(), "digest": completed_rpc_digest(result.metrics)}


def channel_lines(row: Row) -> List[str]:
    """Header plus one line per channel: QoS_h demand, settled admit
    probability and goodput."""
    return [
        f"{'channel':>8} {'QoSh-req':>9} {'p_admit':>8} {'goodput(Gbps)':>14}",
        f"{'A':>8} {100 * row['share_a']:8.0f}% {row['p_admit_a']:8.2f} "
        f"{row['goodput_a_gbps']:14.1f}",
        f"{'B':>8} {100 * row['share_b']:8.0f}% {row['p_admit_b']:8.2f} "
        f"{row['goodput_b_gbps']:14.1f}",
    ]


def table(rows: Sequence[Row]) -> str:
    lines = [f"Fairness run (alpha={_ALPHA}, beta={_BETA})"]
    for r in rows:
        conv = r["convergence_ms"]
        lines += channel_lines(r)
        lines.append(
            f"throughput gap = {r['throughput_gap']:.1%}, "
            f"convergence ~ {conv if conv is None else round(conv, 1)} ms"
        )
    return "\n".join(lines)


# Bounds of each claim EXPERIMENTS.md lists under Fig 17, per profile.
# A 40%-vs-80% demand split served proportionally leaves a relative
# goodput gap of ~67%; the paper profile holds the channels within
# 1.7x of each other, i.e. a gap under 1 - 1/1.7.
BOUNDS: Dict[str, Dict[str, Bound]] = {
    "paper": {
        "fig17/heavier-admits-less": ("<", 0.0),
        "fig17/throughput-gap": ("<", 1 - 1 / 1.7),
        "fig17/min-goodput-gbps": (">", 5.0),
        "fig17/convergence-ms": ("<", 80.0),
    },
}
BOUNDS["fast"] = {
    **BOUNDS["paper"],
    "fig17/throughput-gap": ("<", 0.6),
    "fig17/min-goodput-gbps": (">", 0.0),
}


def check(rows: Rows, profile: str, series: Optional[Row] = None) -> List[Claim]:
    """Fairness shape: the heavier channel holds the lower admit
    probability, admitted throughputs land far closer than the 2x
    demand split, neither channel starves, and the running goodput
    settles in time."""
    (row,) = rows
    conv = row["convergence_ms"]
    return judge(
        BOUNDS[profile],
        {
            "fig17/heavier-admits-less": row["p_admit_b"] - row["p_admit_a"],
            "fig17/throughput-gap": row["throughput_gap"],
            "fig17/min-goodput-gbps": min(row["goodput_a_gbps"], row["goodput_b_gbps"]),
            "fig17/convergence-ms": float("nan") if conv is None else conv,
        },
    )

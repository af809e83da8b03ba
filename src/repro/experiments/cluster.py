"""Unified cluster harness: builds a topology, wires one scheme, runs it.

Every evaluation figure is a parameterization of this harness: pick a
scheme (Aequitas, plain WFQ+Swift, SPQ, pFabric, QJump, D3, PDQ, Homa),
a topology size, SLOs, a traffic mix and burst pattern — run — then
read RNL percentiles, admitted QoS-mix, SLO-met fractions and goodput
from the shared :class:`~repro.rpc.stack.MetricsCollector`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.baselines.d3 import d3_arbiter_map, d3_deadline_fn, d3_scheduler_factory
from repro.baselines.deadline import DeadlineEndpoint
from repro.baselines.homa import HomaEndpoint, homa_scheduler_factory
from repro.baselines.pdq import pdq_arbiter_map, pdq_deadline_fn, pdq_scheduler_factory
from repro.baselines.pfabric import pfabric_scheduler_factory, pfabric_transport_config
from repro.baselines.qjump import (
    QJumpEndpoint,
    qjump_level_rates,
    qjump_scheduler_factory,
    qjump_transport_config,
)
from repro.baselines.spq import spq_factory
from repro.core.admission import AdmissionParams
from repro.core.qos import Priority, QoSConfig
from repro.core.slo import SLOMap
from repro.net.topology import Network, SchedulerFactory, build_star, wfq_factory
from repro.rpc.sizes import FixedSize, SizeDistribution
from repro.rpc.stack import MetricsCollector, RpcStack
from repro.rpc.workload import BurstPattern, OpenLoopSource
from repro.sim.engine import Simulator, ns_from_ms, ns_from_us
from repro.stats.summary import percentile
from repro.transport.base import FixedWindowCC
from repro.transport.reliable import TransportConfig, TransportEndpoint
from repro.transport.swift import SwiftCC, SwiftParams

SCHEMES = ("aequitas", "wfq", "spq", "pfabric", "qjump", "d3", "pdq", "homa")


@dataclass
class ClusterConfig:
    """Everything one experiment run needs.

    ``scheme='wfq'`` is the paper's "w/o Aequitas" baseline: the same
    WFQ fabric and Swift transport, admission control disabled.
    """

    scheme: str = "aequitas"
    num_hosts: int = 8
    weights: Tuple[int, ...] = (8, 4, 1)
    line_rate_bps: float = 100e9
    buffer_bytes: int = 4 * 1024 * 1024
    # SLOs (per-MTU) and AIMD parameters.
    slo_high_us: float = 15.0
    slo_med_us: float = 25.0
    target_percentile: float = 99.9
    alpha: float = 0.01
    beta: float = 0.01
    floor: float = 0.01
    # Traffic.
    mu: float = 0.8
    rho: float = 1.4
    period_us: float = 100.0
    priority_mix: Dict[Priority, float] = field(
        default_factory=lambda: {Priority.PC: 0.6, Priority.NC: 0.3, Priority.BE: 0.1}
    )
    size_dist: Union[SizeDistribution, Dict[Priority, SizeDistribution]] = field(
        default_factory=lambda: FixedSize(32 * 1024)
    )
    per_host_load_scale: float = 1.0
    # Timing.
    duration_ms: float = 20.0
    warmup_ms: float = 5.0
    seed: int = 42
    # Transport details.
    ack_bypass: bool = True
    swift_target_us: float = 25.0
    # Custom traffic: if set, called instead of the all-to-all default as
    # traffic_fn(sim, stacks, cfg) and must create the sources itself.
    traffic_fn: Optional[Callable[..., object]] = None
    # Override the per-port scheduler factory (e.g. to swap the WFQ
    # realization for DWRR in ablations).  None = the scheme's default.
    scheduler_factory: Optional[SchedulerFactory] = None

    def __post_init__(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; pick one of {SCHEMES}")
        if self.num_hosts < 2:
            raise ValueError("need at least 2 hosts")
        if self.warmup_ms >= self.duration_ms:
            raise ValueError("warmup must end before the run does")

    @property
    def slo_map(self) -> SLOMap:
        return SLOMap.for_three_levels(
            ns_from_us(self.slo_high_us),
            ns_from_us(self.slo_med_us),
            target_percentile=self.target_percentile,
            qos_config=QoSConfig(self.weights),
        )

    @property
    def pattern(self) -> BurstPattern:
        return BurstPattern(
            mu=self.mu, rho=self.rho, period_ns=ns_from_us(self.period_us)
        )


@dataclass
class ClusterResult:
    """A finished run plus convenience accessors over its metrics."""

    cfg: ClusterConfig
    sim: Simulator
    net: Network
    stacks: List[RpcStack]
    metrics: MetricsCollector
    slo_map: SLOMap

    @property
    def warmup_ns(self) -> int:
        return ns_from_ms(self.cfg.warmup_ms)

    @property
    def measure_until_ns(self) -> int:
        # Exclude the final stretch: RPCs issued there may not have had
        # time to complete and would bias miss counts.
        return ns_from_ms(self.cfg.duration_ms * 0.9)

    def rnl_tail_us(self, qos: int, pctl: Optional[float] = None, normalized: bool = True) -> float:
        """Tail of (normalized) RNL for traffic that ran at ``qos``, in us."""
        pctl = pctl if pctl is not None else self.cfg.target_percentile
        if normalized:
            samples = self.metrics.normalized_rnl_ns(qos, since_ns=self.warmup_ns)
        else:
            samples = self.metrics.absolute_rnl_ns(qos, since_ns=self.warmup_ns)
        return percentile(samples, pctl) / 1000.0

    def admitted_mix(self) -> Dict[int, float]:
        return self.metrics.admitted_mix(since_ns=self.warmup_ns)

    def offered_mix(self) -> Dict[int, float]:
        return self.metrics.offered_mix(since_ns=self.warmup_ns)

    def slo_met_fraction(self, qos: int) -> float:
        return self.metrics.slo_met_fraction(
            qos, since_ns=self.warmup_ns, until_ns=self.measure_until_ns
        )

    def goodput_fraction(self) -> float:
        return self.metrics.goodput_fraction(
            since_ns=self.warmup_ns, until_ns=self.measure_until_ns
        )


def build_cluster(cfg: ClusterConfig) -> ClusterResult:
    """Construct (but do not run) a cluster for the given config."""
    sim = Simulator()
    scheduler_factory = _scheduler_factory(cfg)
    net = build_star(
        sim, cfg.num_hosts, scheduler_factory, line_rate_bps=cfg.line_rate_bps
    )
    endpoints = _make_endpoints(cfg, sim, net)
    if cfg.ack_bypass:
        for ep in endpoints:
            for other in endpoints:
                if other is not ep:
                    ep.register_peer(other)

    metrics = MetricsCollector()
    slo_map = cfg.slo_map
    params = AdmissionParams(alpha=cfg.alpha, beta=cfg.beta, floor=cfg.floor)
    deadline_fn = None
    if cfg.scheme == "d3":
        deadline_fn = d3_deadline_fn
    elif cfg.scheme == "pdq":
        deadline_fn = pdq_deadline_fn

    stacks = [
        RpcStack(
            sim,
            net.hosts[i],
            endpoints[i],
            slo_map,
            params,
            metrics,
            seed=cfg.seed,
            admission_enabled=(cfg.scheme == "aequitas"),
            deadline_fn=deadline_fn,
        )
        for i in range(cfg.num_hosts)
    ]
    return ClusterResult(cfg, sim, net, stacks, metrics, slo_map)


def run_cluster(cfg: ClusterConfig) -> ClusterResult:
    """Build, attach traffic, and run one experiment to completion."""
    result = build_cluster(cfg)
    attach_traffic(result)
    result.sim.run(until=ns_from_ms(cfg.duration_ms))
    return result


def attach_traffic(result: ClusterResult) -> None:
    """Install the workload: ``cfg.traffic_fn`` if given, else the
    all-to-all open-loop sources the paper's cluster experiments use."""
    cfg = result.cfg
    if cfg.traffic_fn is not None:
        cfg.traffic_fn(result.sim, result.stacks, cfg)
        return
    host_ids = [s.host.host_id for s in result.stacks]
    pattern = cfg.pattern
    if cfg.per_host_load_scale != 1.0:
        pattern = BurstPattern(
            mu=min(cfg.mu * cfg.per_host_load_scale, cfg.rho * cfg.per_host_load_scale),
            rho=cfg.rho * cfg.per_host_load_scale,
            period_ns=pattern.period_ns,
        )
    stop_ns = ns_from_ms(cfg.duration_ms)
    for stack in result.stacks:
        dsts = [h for h in host_ids if h != stack.host.host_id]
        rng = random.Random(cfg.seed * 7919 + stack.host.host_id)
        OpenLoopSource(
            result.sim,
            stack,
            dsts,
            cfg.priority_mix,
            cfg.size_dist,
            pattern,
            line_rate_bps=cfg.line_rate_bps,
            rng=rng,
            stop_ns=stop_ns,
        )


# ----------------------------------------------------------------------
# Scheme wiring
# ----------------------------------------------------------------------
def _scheduler_factory(cfg: ClusterConfig) -> SchedulerFactory:
    if cfg.scheduler_factory is not None:
        return cfg.scheduler_factory
    n = len(cfg.weights)
    if cfg.scheme in ("aequitas", "wfq"):
        return wfq_factory(cfg.weights, cfg.buffer_bytes)
    if cfg.scheme == "spq":
        return spq_factory(n, cfg.buffer_bytes)
    if cfg.scheme == "pfabric":
        return pfabric_scheduler_factory()
    if cfg.scheme == "qjump":
        return qjump_scheduler_factory(n, cfg.buffer_bytes)
    if cfg.scheme == "d3":
        return d3_scheduler_factory(cfg.buffer_bytes)
    if cfg.scheme == "pdq":
        return pdq_scheduler_factory(cfg.buffer_bytes)
    if cfg.scheme == "homa":
        return homa_scheduler_factory(cfg.buffer_bytes)
    raise AssertionError(cfg.scheme)


def _swift_config(cfg: ClusterConfig) -> TransportConfig:
    target = ns_from_us(cfg.swift_target_us)
    return TransportConfig(
        cc_factory=lambda: SwiftCC(SwiftParams(target_delay_ns=target)),
        ack_bypass=cfg.ack_bypass,
    )


def _make_endpoints(
    cfg: ClusterConfig, sim: Simulator, net: Network
) -> List[TransportEndpoint]:
    hosts = net.hosts
    host_ids = [h.host_id for h in hosts]
    if cfg.scheme in ("aequitas", "wfq", "spq"):
        config = _swift_config(cfg)
        return [TransportEndpoint(sim, h, config) for h in hosts]
    if cfg.scheme == "pfabric":
        config = pfabric_transport_config(ack_bypass=cfg.ack_bypass)
        return [TransportEndpoint(sim, h, config) for h in hosts]
    if cfg.scheme == "qjump":
        rates = qjump_level_rates(cfg.line_rate_bps, cfg.num_hosts)
        config = qjump_transport_config(ack_bypass=cfg.ack_bypass)
        return [QJumpEndpoint(sim, h, rates, config) for h in hosts]
    if cfg.scheme in ("d3", "pdq"):
        make_map = d3_arbiter_map if cfg.scheme == "d3" else pdq_arbiter_map
        arbiters = make_map(sim, host_ids, cfg.line_rate_bps)
        config = TransportConfig(
            cc_factory=lambda: FixedWindowCC(64.0), ack_bypass=cfg.ack_bypass
        )
        return [DeadlineEndpoint(sim, h, arbiters, config) for h in hosts]
    if cfg.scheme == "homa":
        config = TransportConfig(
            cc_factory=lambda: FixedWindowCC(1e9), ack_bypass=cfg.ack_bypass
        )
        return [
            HomaEndpoint(sim, h, config, line_rate_bps=cfg.line_rate_bps)
            for h in hosts
        ]
    raise AssertionError(cfg.scheme)

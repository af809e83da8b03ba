"""The two packet-simulator workloads.

Both drive ``build_cluster`` + ``attach_traffic`` + ``Simulator.run``
on the same star, stack, QoS mix and load; they differ only in RPC size
and horizon, which is what moves the cost from per-packet (32 KiB:
transport / net / sim kernel) to per-RPC (1 KiB: rpc / core).  The unit
is a fixed simulated horizon cut into equal simulated-time slices via
``run(until=...)`` — bit-identical work in every repetition.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from benchmarks.ledger.spans import SpanRecorder, maybe_span
from benchmarks.ledger.workloads import Unit
from repro.core.qos import Priority
from repro.experiments.cluster import (
    ClusterConfig,
    ClusterResult,
    attach_traffic,
    build_cluster,
)
from repro.obs.runtime import ObsContext, activate, deactivate
from repro.rpc.sizes import FixedSize
from repro.rpc.workload import OpenLoopSource, steady_pattern
from repro.sim.engine import Simulator, ns_from_ms

if TYPE_CHECKING:
    from pathlib import Path

    from benchmarks.ledger.layers import LayerProfile

_MIX = {Priority.PC: 0.6, Priority.NC: 0.2, Priority.BE: 0.2}
_LOAD = 0.4  # per sender; 7 senders -> the receiver's downlink is 2.8x offered


@dataclass(frozen=True)
class _Shape:
    rpc_bytes: int
    horizon_ms: float
    slices: int


_SHAPES = {
    "sim_incast_32k": _Shape(32 * 1024, 24.0, 48),
    "sim_small_rpc_1k": _Shape(1024, 2.0, 16),
}


class SimWorkload:
    aligned = True
    traced_units = 1
    sanitize_child = True
    #: The unit rebuilt under ``ObsContext.full()``, over the plain unit.
    observed_metric = "obs.traced_slowdown"

    def __init__(self, name: str) -> None:
        self.name = name
        self.shape = _SHAPES[name]
        self.work = self.shape.horizon_ms

    # -- building ------------------------------------------------------
    def _config(self, seed: int) -> ClusterConfig:
        shape = self.shape

        def incast(sim: Simulator, stacks: List[Any], cfg: ClusterConfig) -> None:
            for stack in stacks[1:]:
                OpenLoopSource(
                    sim,
                    stack,
                    [0],
                    _MIX,
                    FixedSize(shape.rpc_bytes),
                    steady_pattern(_LOAD),
                    line_rate_bps=cfg.line_rate_bps,
                    rng=random.Random(cfg.seed * 7919 + stack.host.host_id),
                    stop_ns=ns_from_ms(cfg.duration_ms),
                )

        return ClusterConfig(
            scheme="aequitas",
            num_hosts=8,
            duration_ms=shape.horizon_ms,
            warmup_ms=shape.horizon_ms / 10,
            seed=seed,
            traffic_fn=incast,
        )

    def _build(self, seed: int, spans: Optional[SpanRecorder]) -> ClusterResult:
        with maybe_span(spans, "build_cluster"):
            cluster = build_cluster(self._config(seed))
        with maybe_span(spans, "attach_traffic"):
            attach_traffic(cluster)
        return cluster

    def _horizon_ns(self, index: int) -> int:
        return ns_from_ms(self.shape.horizon_ms * (index + 1) / self.shape.slices)

    def first_op(self, seed: int, scratch: str) -> None:
        self._build(seed, None).sim.run(until=self._horizon_ns(0))

    # -- one unit ------------------------------------------------------
    def run_unit(
        self,
        seed: int,
        scratch: Path,
        spans: Optional[SpanRecorder] = None,
        profile: Optional["LayerProfile"] = None,
        unit_id: int = 0,
        observed: bool = False,
    ) -> Unit:
        clock = time.perf_counter
        slices: List[float] = []
        if observed:
            # Hooks bind at construction, so the context must be active
            # before the cluster is built.
            activate(ObsContext.full())
        if profile is not None:
            profile.enable()
        try:
            with maybe_span(spans, "unit", unit_id):
                start = clock()
                with maybe_span(spans, "build"):
                    cluster = self._build(seed, spans)
                slices.append(clock() - start)
                run = cluster.sim.run
                for index in range(self.shape.slices):
                    until = self._horizon_ns(index)
                    start = clock()
                    with maybe_span(spans, "Simulator.run"):
                        run(until=until)
                    slices.append(clock() - start)
        finally:
            if profile is not None:
                profile.disable()
            if observed:
                deactivate()
        return Unit(slices, _facts(cluster))

    # -- checks --------------------------------------------------------
    def check(self, units: List[Unit]) -> Tuple[int, int, List[str]]:
        reference = units[0].exact
        problems: List[str] = []
        failed = 0
        for index, unit in enumerate(units):
            facts = unit.exact
            bad = []
            if facts["digest_hex"] != reference["digest_hex"]:
                bad.append("completed_rpc_digest differs")
            if facts["events"] != reference["events"]:
                bad.append(f"events {facts['events']} != {reference['events']}")
            if facts["completed"] > facts["issued"]:
                bad.append("completed > issued")
            if facts["completed"] == 0:
                bad.append("no RPC completed")
            if bad:
                failed += 1
                problems.append(f"unit {index}: {'; '.join(bad)}")
        return len(units), failed, problems

    # -- per-layer metrics ----------------------------------------------
    def counters(self, units: List[Unit], spans: SpanRecorder) -> Dict[str, float]:
        from benchmarks.ledger.estimator import slice_minima

        facts = units[0].exact
        events, packets = facts["events"], facts["packets_sent"]
        offered = packets + facts["packets_dropped"]
        minima = slice_minima([u.slices for u in units])  # [build, run...]
        return {
            "sim.events_per_work": events / self.work,
            "sim.events_per_packet": events / packets,
            "net.packets_per_work": packets / self.work,
            "rpc.events_per_completed_rpc": events / facts["completed"],
            "sim.events_per_sec": events / sum(minima[1:]),
            "net.drop_share": facts["packets_dropped"] / offered,
            "transport.retransmit_share": facts["retransmits"] / packets,
            "rpc.completed_share": facts["completed"] / facts["issued"],
            "core.downgrade_share": facts["downgrades"] / facts["issued"],
            "experiments.build_ms": minima[0] * 1e3,
        }

    def probes(self, seed: int, scratch: Path) -> Dict[str, float]:
        from benchmarks.ledger import probes

        return {
            **probes.kernel_probe(),
            **probes.scheduler_probes(),
            **probes.collector_probe(),
            **probes.core_probes(),
            **probes.obs_probes(),
        }


def _facts(cluster: ClusterResult) -> Dict[str, Any]:
    # The digest is the ledger's check, not something a user's first
    # operation needs, so the set-up child does not import it.
    from repro.stats.digest import completed_rpc_digest, digest_hex

    digest = completed_rpc_digest(cluster.metrics)
    ports = list(cluster.net.host_ports.values()) + list(cluster.net.switch_ports.values())
    return {
        "digest_hex": digest_hex(digest),
        "events": cluster.sim.events_processed,
        "issued": digest["issued"],
        "completed": digest["completed"],
        "downgrades": cluster.metrics.downgrades,
        "packets_sent": sum(p.packets_sent for p in ports),
        "packets_dropped": sum(p.packets_dropped for p in ports),
        "retransmits": sum(
            flow.retransmitted_packets
            for stack in cluster.stacks
            for flow in stack.endpoint.flows.values()
        ),
    }


def make(name: str) -> SimWorkload:
    return SimWorkload(name)

"""Traced companion scenarios for ``python -m repro trace <fig>``.

Figure sweeps reduce dozens of simulations to one curve; a *trace* does
the opposite — it runs a single representative simulation of a figure's
regime with the full observability stack on (tracer + profiler +
metrics registry) so the inside of that regime is inspectable in
Perfetto.  Analytic figures (fig08/fig09 are closed-form) get a traced
packet-level cluster in the same operating regime instead: the point of
tracing fig08 is to *watch* the high-QoS-share delay inversion happen
in real queues, not to re-derive the formula.

``TRACE_OVERRIDES`` parameterizes the default small Aequitas cluster
per figure; anything not listed falls back to the default, which is
deliberately small (6 hosts, a few ms) so a trace stays loadable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain
from typing import Dict, Optional

from repro.core.qos import Priority
from repro.experiments.cluster import (
    ClusterConfig,
    ClusterResult,
    attach_traffic,
    build_cluster,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SimProfiler
from repro.obs.runtime import ObsContext, activate, deactivate
from repro.obs.series import build_series, slo_miss_rates_from_spans
from repro.obs.trace import Tracer
from repro.runner.registry import UnknownExperimentError, available_experiments
from repro.sim.engine import ns_from_ms, ns_from_us

#: Default traced run: small Aequitas cluster, short horizon.
_BASE = ClusterConfig(
    scheme="aequitas",
    num_hosts=6,
    duration_ms=6.0,
    warmup_ms=2.0,
    seed=42,
)

#: Per-figure overrides putting the traced run into the figure's regime.
TRACE_OVERRIDES: Dict[str, Dict[str, object]] = {
    # High QoS_h share near the worst-case-delay inversion the figure
    # derives analytically.  The SLO percentile is relaxed to p99 so the
    # additive-increase window (target * 100/(100-pctl)) fits inside the
    # short traced horizon and the full AIMD sawtooth is visible.
    "fig08": {
        "priority_mix": {Priority.PC: 0.85, Priority.NC: 0.10, Priority.BE: 0.05},
        "rho": 1.6,
        "target_percentile": 99.0,
    },
    # Heavy-weight panel regime (weights 50:4:1); p99 for the same
    # increment-window reason as fig08.  The contrast with fig08 is the
    # point: at comparable load the wider admissible region keeps every
    # channel fully admitted.
    "fig09": {"weights": (50, 4, 1), "target_percentile": 99.0},
    # SLO-tracking single-bottleneck regime.
    "fig11": {"num_hosts": 3, "duration_ms": 8.0, "warmup_ms": 2.0},
    # Cluster tails without admission control, for contrast.
    "fig14": {"scheme": "wfq", "priority_mix": {
        Priority.PC: 0.7, Priority.NC: 0.2, Priority.BE: 0.1}},
    # Burstier offered load (C/rho sweep regime).
    "fig16": {"rho": 2.2},
    # Strict-priority starvation regime.
    "fig19": {"scheme": "spq", "priority_mix": {
        Priority.PC: 0.8, Priority.NC: 0.1, Priority.BE: 0.1}},
    # Extreme overload.
    "fig21": {"rho": 2.5},
}

#: Sim-time cadence of metrics-registry snapshots in traced runs.
SNAPSHOT_CADENCE_US = 250.0


@dataclass
class TracedRun:
    """One traced simulation plus the instruments that watched it."""

    figure: str
    cfg: ClusterConfig
    result: ClusterResult
    tracer: Tracer
    profiler: SimProfiler
    registry: MetricsRegistry

    def series(self) -> Dict[str, object]:
        """The JSON-safe analysis series for this run (see
        :mod:`repro.obs.series`): p_admit trajectories, rolling RNL
        percentiles vs. SLO, goodput tracks, flow summary."""
        # Deferred: repro.analysis sits above repro.obs.
        from repro.analysis.attribution import attribute_tracer, attribution_block

        tracer, registry = self.tracer, self.registry
        slo_map = self.result.slo_map
        doc = build_series(
            tracer.admission_events,
            tracer.queue_spans,
            chain(tracer.flow_cwnd_samples, tracer.flow_retransmits),
            [registry.series],
            registry.all_histogram_bounds(),
            [t for t, _snap in registry.series],
            slo_ns={
                str(level): float(slo_map.get(level).latency_target_ns)
                for level in slo_map.levels()
            },
            slo_miss_rate=slo_miss_rates_from_spans(tracer.rpc_spans),
            attribution=attribution_block(attribute_tracer(tracer)),
            alerts=[],
        )
        doc["figure"] = self.figure
        return doc


def trace_config(figure: str, profile: str = "fast", seed: Optional[int] = None) -> ClusterConfig:
    """The traced companion :class:`ClusterConfig` for a figure."""
    if figure not in available_experiments():
        raise UnknownExperimentError(
            f"unknown experiment {figure!r}; available: "
            f"{', '.join(available_experiments())}"
        )
    overrides = dict(TRACE_OVERRIDES.get(figure, {}))
    cfg = replace(_BASE, **overrides)  # type: ignore[arg-type]
    if profile == "paper":
        cfg = replace(cfg, duration_ms=cfg.duration_ms * 3, warmup_ms=cfg.warmup_ms * 3)
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    return cfg


def run_traced_figure(
    figure: str, profile: str = "fast", seed: Optional[int] = None
) -> TracedRun:
    """Run one figure's traced companion scenario with full observability.

    Activates a fresh :class:`~repro.obs.runtime.ObsContext` around the
    build+run (hooks bind at construction time) and deactivates it
    before returning, so tracing never leaks into later simulations in
    the same process.
    """
    cfg = trace_config(figure, profile=profile, seed=seed)
    context = ObsContext.full()
    activate(context)
    try:
        result = build_cluster(cfg)
        attach_traffic(result)
        assert context.registry is not None
        context.registry.install_sampler(
            result.sim,
            cadence_ns=ns_from_us(SNAPSHOT_CADENCE_US),
            until_ns=ns_from_ms(cfg.duration_ms),
            include_buckets=True,
        )
        result.sim.run(until=ns_from_ms(cfg.duration_ms))
    finally:
        deactivate()
    assert context.tracer is not None and context.profiler is not None
    assert context.registry is not None
    return TracedRun(
        figure=figure,
        cfg=cfg,
        result=result,
        tracer=context.tracer,
        profiler=context.profiler,
        registry=context.registry,
    )

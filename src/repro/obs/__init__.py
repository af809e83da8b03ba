"""Observability: RPC-lifecycle tracing, metrics, sim-time profiling.

Everything here is opt-in: with no :class:`~repro.obs.runtime.ObsContext`
active (and ``REPRO_TRACE`` unset), instrumented components resolve
their hooks to ``None`` at construction and every hook site is a single
pointer test — runs are bit-identical (digests included) and within
noise of un-instrumented throughput.  See ``docs/observability.md``.

This package init deliberately re-exports only the dependency-light
core (:mod:`runtime`, :mod:`trace`, :mod:`metrics`, :mod:`profile`);
the exporters, series builders, and CLI scenarios
(:mod:`repro.obs.export`, :mod:`repro.obs.series`,
:mod:`repro.obs.scenarios`) are imported by their consumers directly —
``scenarios`` pulls in the whole experiment harness, and the engine
imports :mod:`repro.obs.runtime`, so keeping the init light avoids an
import cycle.
"""

from repro.obs.clock import ClockSource, FixedClock
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profile import ProfileRow, SimProfiler
from repro.obs.runtime import (
    ObsContext,
    activate,
    active,
    active_profiler,
    active_registry,
    active_tracer,
    deactivate,
    trace_enabled_by_env,
)
from repro.obs.trace import (
    AdmissionEvent,
    DropEvent,
    FlowCwndSample,
    FlowRetransmit,
    QueueSpan,
    RpcSpan,
    Tracer,
    TxSpan,
)

__all__ = [
    "AdmissionEvent",
    "ClockSource",
    "Counter",
    "DropEvent",
    "FixedClock",
    "FlowCwndSample",
    "FlowRetransmit",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsContext",
    "ProfileRow",
    "QueueSpan",
    "RpcSpan",
    "SimProfiler",
    "Tracer",
    "TxSpan",
    "activate",
    "active",
    "active_profiler",
    "active_registry",
    "active_tracer",
    "deactivate",
    "trace_enabled_by_env",
]

"""The sim-vs-live ``p_admit`` agreement gate.

The live runtime cannot be gated on bit-identity — wall-clock RNL
measurements depend on scheduler jitter, socket buffering, and machine
load (see ``docs/live.md``).  What *is* invariant is the equilibrium:
both worlds run the same arrival substreams through the same admission
engines against a server with the same capacity, so AIMD must settle
each channel's admit probability to the same load-determined value.

:func:`compare_tracks` therefore compares **settled values**, not
trajectories: each side's raw adjustment tracks are forward-filled onto
one uniform grid by the series builder's own
:func:`repro.obs.series.fill_on_grid` (a channel starts at
``p_admit = 1.0`` and holds its last value between adjustments), rolled
up per QoS with :func:`repro.analysis.convergence.per_qos_convergence`,
and the per-QoS settled values must agree within an absolute tolerance.
The default tolerance (0.2) is wide enough for the AIMD sawtooth plus
timing-induced drift but far tighter than the throttling signal it
guards: an overloaded channel settles near ``capacity / offered``
(≈ 0.55 at the demo's 1.8× overload), so a live runtime that fails to
throttle at all (p ≈ 1.0) or collapses to the floor (p ≈ 0.01) fails
the gate by a wide margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.analysis.convergence import QosConvergence, per_qos_convergence
from repro.live.events import read_events
from repro.obs.series import Track, fill_on_grid, p_admit_events, uniform_grid
from repro.obs.trace import AdmissionEvent, span_from_record

#: Absolute tolerance on per-QoS settled p_admit between sim and live.
DEFAULT_TOLERANCE = 0.2

#: Steady-state detector band for both sides: looser than the analysis
#: default (0.05) because wall-clock AIMD wiggles more.
DETECTOR_TOLERANCE = 0.25

#: Points of the uniform grid both sides are filled onto.  One grid
#: makes the detector's tail-fraction window the same wall-time span on
#: both sides, however many raw adjustments each side recorded.
GRID_POINTS = 200


def tracks_from_logs(paths: Sequence[Union[str, Path]]) -> Dict[str, Track]:
    """Raw per-channel adjustment tracks across a run's client logs."""
    return p_admit_events(
        span_from_record(AdmissionEvent, record)
        for path in paths
        for record in read_events(path)
        if record.get("type") == "admission"
    )


@dataclass(frozen=True)
class QosDelta:
    """Settled-value agreement for one SLO-carrying QoS level."""

    qos: int
    sim_settled: float
    live_settled: float
    tolerance: float
    sim_channels: int
    live_channels: int

    @property
    def delta(self) -> float:
        return abs(self.sim_settled - self.live_settled)

    @property
    def ok(self) -> bool:
        return self.delta <= self.tolerance

    def render(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return (
            f"qos{self.qos}: sim settled {self.sim_settled:.3f} "
            f"({self.sim_channels} ch), live settled {self.live_settled:.3f} "
            f"({self.live_channels} ch), |delta| {self.delta:.3f} "
            f"<= {self.tolerance:.3f}: {verdict}"
        )


@dataclass(frozen=True)
class CompareResult:
    """The gate's verdict: per-QoS settled deltas plus failure notes."""

    deltas: Tuple[QosDelta, ...]
    problems: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return not self.problems and all(d.ok for d in self.deltas)

    def report(self) -> str:
        lines = ["sim-vs-live p_admit convergence:"]
        lines.extend(f"  {d.render()}" for d in self.deltas)
        lines.extend(f"  problem: {p}" for p in self.problems)
        lines.append(f"  verdict: {'OK' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def _settled(
    tracks: Dict[str, Track], grid: Sequence[int]
) -> Dict[int, QosConvergence]:
    filled = {key: fill_on_grid(track, grid) for key, track in tracks.items()}
    return per_qos_convergence(filled, tolerance=DETECTOR_TOLERANCE)


def compare_tracks(
    sim_tracks: Dict[str, Track],
    live_tracks: Dict[str, Track],
    duration_ns: int,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CompareResult:
    """Gate the live run's settled ``p_admit`` against the sim reference.

    Both track maps are raw adjustment tracks keyed ``src->dst/qosN``.
    Every SLO QoS the simulator produced must be present on the live
    side and agree on the settled value within ``tolerance``.
    """
    problems: List[str] = []
    if not sim_tracks:
        problems.append("simulator reference produced no p_admit tracks")
    if not live_tracks:
        problems.append("live run produced no p_admit tracks")
    grid = uniform_grid(duration_ns, GRID_POINTS)
    sim_qos = _settled(sim_tracks, grid)
    live_qos = _settled(live_tracks, grid)
    deltas: List[QosDelta] = []
    for qos, sim_verdict in sorted(sim_qos.items()):
        live_verdict = live_qos.get(qos)
        if live_verdict is None:
            problems.append(f"live run has no qos{qos} p_admit track")
            continue
        deltas.append(
            QosDelta(
                qos=qos,
                sim_settled=sim_verdict.settled_value,
                live_settled=live_verdict.settled_value,
                tolerance=tolerance,
                sim_channels=sim_verdict.channels,
                live_channels=live_verdict.channels,
            )
        )
    for qos in sorted(set(live_qos) - set(sim_qos)):
        problems.append(f"live run has unexpected qos{qos} p_admit track")
    return CompareResult(deltas=tuple(deltas), problems=tuple(problems))


__all__ = [
    "DEFAULT_TOLERANCE",
    "DETECTOR_TOLERANCE",
    "GRID_POINTS",
    "CompareResult",
    "QosDelta",
    "compare_tracks",
    "tracks_from_logs",
]

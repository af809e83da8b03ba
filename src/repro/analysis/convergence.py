"""Steady-state detection for admission-control trajectories.

Section 6.6 of the paper quotes *convergence times* — how long the
AIMD-driven ``p_admit`` takes to settle after a load change (10 ms in
Fig 17, 3 ms in Fig 18, 20 ms at 144 nodes).  This module turns a time
series into a :class:`SteadyState` verdict: whether it converged, when,
to what settled value, and how wide the residual oscillation band is —
the numbers the run reports and the cross-run diff gate on.

The primitives are a centered moving average (:func:`smooth`), the tail
mean (:func:`steady_value`) and the stay-in-band-from-here-on rule
(:func:`convergence_time_ns`).  :func:`detect` combines them into one
verdict, and :func:`per_qos_convergence` rolls many per-channel
trajectories, each detected independently, up to per-QoS verdicts.

Inputs are plain ``(time_ns, value)`` sequences — the module is
deliberately decoupled from :mod:`repro.obs`, so it works equally on
live tracer output, stored run-series documents, and synthetic traces
in tests.  numpy is imported inside the functions that call it (see
:mod:`repro.stats.summary`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

#: Default relative tolerance of the steady band.  p_admit moves in
#: alpha-sized steps (0.01 by default), so 5% of a settled value is
#: comfortably wider than the AIMD sawtooth yet far tighter than the
#: transient it must exclude.
DEFAULT_TOLERANCE = 0.05

#: Fraction of the trace tail that defines the settled value.
DEFAULT_TAIL_FRACTION = 0.25

#: Moving-average window (samples) applied before banding.
DEFAULT_SMOOTH_WINDOW = 5


def steady_value(
    trace: Sequence[Tuple[int, float]], tail_fraction: float = DEFAULT_TAIL_FRACTION
) -> float:
    """Mean of the last ``tail_fraction`` of the trace (the settled value)."""
    if not trace:
        raise ValueError("empty trace")
    import numpy as np

    values = [v for _, v in trace]
    start = int(len(values) * (1.0 - tail_fraction))
    tail = values[start:] or values[-1:]
    return float(np.mean(tail))


def smooth(
    trace: Sequence[Tuple[int, float]], window: int = DEFAULT_SMOOTH_WINDOW
) -> List[Tuple[int, float]]:
    """Centered moving average — flattens AIMD sawtooth before banding."""
    if window <= 1 or len(trace) <= window:
        return list(trace)
    import numpy as np

    values = [v for _, v in trace]
    half = window // 2
    out = []
    for i, (t, _) in enumerate(trace):
        lo = max(0, i - half)
        hi = min(len(values), i + half + 1)
        out.append((t, float(np.mean(values[lo:hi]))))
    return out


def convergence_time_ns(
    trace: Sequence[Tuple[int, float]],
    tolerance: float = 0.2,
    tail_fraction: float = DEFAULT_TAIL_FRACTION,
    smooth_window: int = DEFAULT_SMOOTH_WINDOW,
) -> Optional[int]:
    """First timestamp after which the (smoothed) trace stays inside a
    band around its steady value for the rest of the run.

    ``tolerance`` is relative to the steady value (absolute when the
    steady value is ~0).  AIMD traces oscillate by design, so the trace
    is moving-average smoothed before banding.  Returns None if the
    trace never settles.
    """
    if not trace:
        return None
    trace = smooth(trace, smooth_window)
    target = steady_value(trace, tail_fraction)
    band = tolerance if target == 0 else abs(target) * tolerance
    inside = [abs(v - target) <= band for _, v in trace]
    # Keep the index of the last excursion outside the band.
    last_outside = -1
    for i, ok in enumerate(inside):
        if not ok:
            last_outside = i
    if last_outside == len(trace) - 1:
        return None
    if last_outside < 0:
        return trace[0][0]
    return trace[last_outside + 1][0]


@dataclass(frozen=True)
class SteadyState:
    """The detector's verdict on one trajectory."""

    converged: bool
    #: First time after which the smoothed trace stays in band;
    #: None when it never settles.
    convergence_time_ns: Optional[int]
    #: Mean of the trace tail — the value the trajectory settled at.
    settled_value: float
    #: Half-width of the residual oscillation band around the settled
    #: value, measured over the tail of the *unsmoothed* trace.
    oscillation_band: float
    #: Number of points the verdict was computed from.
    samples: int


def detect(
    trace: Sequence[Tuple[int, float]], tolerance: float = DEFAULT_TOLERANCE
) -> SteadyState:
    """Run steady-state detection on one ``(time_ns, value)`` trajectory.

    ``tolerance`` is relative to the settled value (the band is
    ``settled ± tolerance * |settled|``); a trace whose smoothed values
    never re-enter and stay inside the band is reported unconverged.
    Raises ``ValueError`` on an empty trace — the caller decides what an
    absent trajectory means.
    """
    if not trace:
        raise ValueError("empty trace")
    settled = steady_value(trace)
    when = convergence_time_ns(trace, tolerance=tolerance)
    # Residual oscillation: peak deviation from the settled value over
    # the raw (unsmoothed) tail — what the sawtooth actually does once
    # the transient is gone.
    start = int(len(trace) * (1.0 - DEFAULT_TAIL_FRACTION))
    tail = list(trace[start:]) or [trace[-1]]
    band = max(abs(v - settled) for _, v in tail)
    return SteadyState(
        converged=when is not None,
        convergence_time_ns=when,
        settled_value=settled,
        oscillation_band=band,
        samples=len(trace),
    )


def detect_tracks(
    tracks: Mapping[str, Sequence[Tuple[int, float]]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[str, SteadyState]:
    """Detect each named trajectory independently (empty tracks skipped)."""
    out: Dict[str, SteadyState] = {}
    for name, trace in tracks.items():
        if not trace:
            continue
        out[name] = detect(trace, tolerance=tolerance)
    return out


@dataclass(frozen=True)
class QosConvergence:
    """Per-QoS rollup over many per-channel ``p_admit`` trajectories.

    The paper's convergence claim is fleet-level: *every* channel must
    settle, so the rollup's convergence time is the slowest channel's
    and the settled value is the mean across channels.
    """

    qos: int
    channels: int
    converged_channels: int
    #: Slowest channel's convergence time (None if any never settles).
    convergence_time_ns: Optional[int]
    #: Mean settled value across channels.
    settled_value: float
    #: Widest residual oscillation band across channels.
    oscillation_band: float

    @property
    def converged(self) -> bool:
        return self.channels > 0 and self.converged_channels == self.channels


def _qos_of_channel(name: str) -> Optional[int]:
    """QoS of a series key like ``"0->3/qos1"`` (None if unparseable)."""
    _, sep, tail = name.rpartition("/qos")
    if not sep or not tail.isdigit():
        return None
    return int(tail)


def per_qos_convergence(
    tracks: Mapping[str, Sequence[Tuple[int, float]]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> Dict[int, QosConvergence]:
    """Roll per-channel ``p_admit`` trajectories up to per-QoS verdicts.

    ``tracks`` is keyed by the series convention ``src->dst/qosN``;
    keys that do not parse are ignored.
    """
    verdicts = detect_tracks(tracks, tolerance=tolerance)
    by_qos: Dict[int, List[SteadyState]] = {}
    for name, verdict in verdicts.items():
        qos = _qos_of_channel(name)
        if qos is None:
            continue
        by_qos.setdefault(qos, []).append(verdict)
    out: Dict[int, QosConvergence] = {}
    for qos, states in sorted(by_qos.items()):
        all_converged = all(s.converged for s in states)
        slowest: Optional[int] = None
        if all_converged:
            for state in states:
                when = state.convergence_time_ns
                if when is not None and (slowest is None or when > slowest):
                    slowest = when
        out[qos] = QosConvergence(
            qos=qos,
            channels=len(states),
            converged_channels=sum(1 for s in states if s.converged),
            convergence_time_ns=slowest,
            settled_value=sum(s.settled_value for s in states) / len(states),
            oscillation_band=max(s.oscillation_band for s in states),
        )
    return out


__all__ = [
    "DEFAULT_SMOOTH_WINDOW",
    "DEFAULT_TAIL_FRACTION",
    "DEFAULT_TOLERANCE",
    "QosConvergence",
    "SteadyState",
    "convergence_time_ns",
    "detect",
    "detect_tracks",
    "per_qos_convergence",
    "smooth",
    "steady_value",
]

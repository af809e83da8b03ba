"""Convergence-time detection for admit-probability / throughput traces.

Section 6.6 reports convergence times (10 ms in Fig 17, 3 ms in Fig 18,
20 ms in the 144-node run) as the time until the traced quantity becomes
stable.  We define convergence as the first time after which the trace
stays inside a +/- tolerance band around its final steady value for the
remainder of the run.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple


def steady_value(trace: Sequence[Tuple[int, float]], tail_fraction: float = 0.25) -> float:
    """Mean of the last ``tail_fraction`` of the trace (the settled value)."""
    if not trace:
        raise ValueError("empty trace")
    import numpy as np  # in the function: see stats.summary

    values = [v for _, v in trace]
    start = int(len(values) * (1.0 - tail_fraction))
    tail = values[start:] or values[-1:]
    return float(np.mean(tail))


def smooth(trace: Sequence[Tuple[int, float]], window: int = 5) -> List[Tuple[int, float]]:
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
    tail_fraction: float = 0.25,
    smooth_window: int = 5,
) -> Optional[int]:
    """First timestamp after which the (smoothed) trace stays in band.

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


def relative_gap(a: float, b: float) -> float:
    """|a-b| / max(|a|,|b|) — scale-free closeness used in fairness checks."""
    denom = max(abs(a), abs(b))
    if denom == 0:
        return 0.0
    return abs(a - b) / denom

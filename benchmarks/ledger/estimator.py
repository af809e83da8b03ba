"""Timing estimators that repeat on a shared host.

Interference only ever *adds* time.  A run therefore repeats one
identical unit of work, cut at fixed work boundaries into slices, and
the quiet time of slice *i* is its minimum over the repetitions; the
unit's quiet time is the sum over *i*.  Composing the quiet parts of
different repetitions is what takes the run-to-run range of a rate
from ~20 % (whole-run wall) to a few percent.

Nothing here normalises by a host-calibration loop: on this class of
host a short calibration loop is itself noisier than what it corrects.
"""

from __future__ import annotations

import statistics
from typing import List, Sequence

#: Fewer repetitions than this and a minimum is not a quiet time yet.
MIN_REPS = 5
#: A sample within this factor of its slice's minimum counts as quiet.
QUIET_TOLERANCE = 1.10


def _check(reps: Sequence[Sequence[float]]) -> int:
    if len(reps) < MIN_REPS:
        raise ValueError(
            f"need at least {MIN_REPS} repetitions for a quiet time, got {len(reps)}"
        )
    width = len(reps[0])
    if width == 0 or any(len(r) != width for r in reps):
        raise ValueError("every repetition must have the same, non-zero slice count")
    return width


def slice_minima(reps: Sequence[Sequence[float]]) -> List[float]:
    """Per-slice minimum over repetitions (slice *i* does identical work)."""
    width = _check(reps)
    return [min(r[i] for r in reps) for i in range(width)]


def quiet_time(reps: Sequence[Sequence[float]]) -> float:
    """The unit's quiet time: sum of the per-slice minima."""
    return sum(slice_minima(reps))


def quiet_share(reps: Sequence[Sequence[float]]) -> float:
    """Share of the work that ran within 10 % of its slice's minimum —
    how disturbed the host was while the run measured.  Samples are
    weighted by their slice's minimum, so that a unit's many sub-
    millisecond slices (whose timer jitter alone exceeds 10 %) do not
    drown the slices that carry its time."""
    minima = slice_minima(reps)
    quiet = sum(
        floor for r in reps for t, floor in zip(r, minima) if t <= floor * QUIET_TOLERANCE
    )
    return quiet / (len(reps) * sum(minima))


def pooled(slices: Sequence[float]) -> List[List[float]]:
    """Statistically (not bitwise) identical slices share one index:
    each is its own repetition of a one-slice unit."""
    return [[t] for t in slices]


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives
    the quartiles; 0 when there are too few values to have quartiles."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def range_share(values: Sequence[float]) -> float:
    """(max - min) / median."""
    return (max(values) - min(values)) / statistics.median(values)

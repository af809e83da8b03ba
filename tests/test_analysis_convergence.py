"""Steady-state detection on synthetic AIMD traces.

Every trace here is constructed so its convergence time is known by
design: a transient at one level, a step to the settled level at a
chosen sample index, then a deterministic AIMD-style sawtooth.  With
the detector's default 5-sample centered smoothing, the first smoothed
point made purely of post-step samples is two samples after the step —
the expected convergence time is exact, not approximate.
"""

import pytest

from repro.analysis.convergence import (
    DEFAULT_SMOOTH_WINDOW,
    detect,
    detect_tracks,
    per_qos_convergence,
)

#: 0.1 ms between samples — the registry sampler's typical cadence.
STEP_NS = 100_000

#: With a centered window of 5, the smoothed trace leaves the transient
#: behind two samples after the step.
SMOOTH_LAG = DEFAULT_SMOOTH_WINDOW // 2


def _times(n):
    return [i * STEP_NS for i in range(n)]


def aimd_trace(n=100, step_at=60, transient=0.2, settled=0.8, saw=0.01):
    """Transient at ``transient``, step to ``settled`` at sample
    ``step_at``, then a deterministic sawtooth of amplitude ``saw``."""
    trace = []
    for i, t in enumerate(_times(n)):
        if i < step_at:
            trace.append((t, transient))
        else:
            offset = saw if (i - step_at) % 2 == 0 else -saw
            trace.append((t, settled + offset))
    return trace


def sawtooth_trace(n=100, settled=0.9, saw=0.01):
    """Pure AIMD sawtooth: in band from the first sample."""
    return [
        (t, settled + (saw if i % 2 == 0 else -saw))
        for i, t in enumerate(_times(n))
    ]


def ramp_trace(n=100):
    """Monotone ramp: never enters a band around its tail mean."""
    return [(t, i / n) for i, t in enumerate(_times(n))]


# ----------------------------------------------------------------------
# detect: single trajectories
# ----------------------------------------------------------------------
def test_known_convergence_time_is_exact():
    step_at = 60
    verdict = detect(aimd_trace(step_at=step_at))
    assert verdict.converged
    assert verdict.convergence_time_ns == (step_at + SMOOTH_LAG) * STEP_NS
    assert verdict.settled_value == pytest.approx(0.8, abs=0.005)
    assert 0.0 < verdict.oscillation_band <= 0.02
    assert verdict.samples == 100


def test_convergence_time_tracks_the_step():
    early = detect(aimd_trace(step_at=20))
    late = detect(aimd_trace(step_at=70))
    assert early.convergence_time_ns == (20 + SMOOTH_LAG) * STEP_NS
    assert late.convergence_time_ns == (70 + SMOOTH_LAG) * STEP_NS
    assert early.convergence_time_ns < late.convergence_time_ns


def test_sawtooth_from_start_converges_immediately():
    verdict = detect(sawtooth_trace())
    assert verdict.converged
    assert verdict.convergence_time_ns == 0
    assert verdict.settled_value == pytest.approx(0.9, abs=0.005)


def test_ramp_never_converges():
    verdict = detect(ramp_trace())
    assert not verdict.converged
    assert verdict.convergence_time_ns is None
    # The settled value and band are still reported (the tail mean).
    assert 0.0 < verdict.settled_value < 1.0


def test_empty_trace_raises():
    with pytest.raises(ValueError):
        detect([])


# ----------------------------------------------------------------------
# detect_tracks / per_qos_convergence: the series rollup
# ----------------------------------------------------------------------
def test_detect_tracks_skips_empty():
    out = detect_tracks({"a": aimd_trace(), "empty": []})
    assert set(out) == {"a"}
    assert out["a"].converged


def test_per_qos_rollup_takes_the_slowest_channel():
    tracks = {
        "h0->h1/qos0": aimd_trace(step_at=60),
        "h0->h2/qos0": aimd_trace(step_at=30),
        "h0->h1/qos1": sawtooth_trace(),
        "not-a-channel": ramp_trace(),  # unparseable key: ignored
    }
    rollup = per_qos_convergence(tracks)
    assert set(rollup) == {0, 1}

    qos0 = rollup[0]
    assert qos0.channels == 2 and qos0.converged_channels == 2
    assert qos0.converged
    # Fleet-level convergence is the slowest channel's.
    assert qos0.convergence_time_ns == (60 + SMOOTH_LAG) * STEP_NS
    assert qos0.settled_value == pytest.approx(0.8, abs=0.005)

    qos1 = rollup[1]
    assert qos1.channels == 1
    assert qos1.convergence_time_ns == 0
    assert qos1.settled_value == pytest.approx(0.9, abs=0.005)


def test_one_unsettled_channel_fails_the_whole_qos():
    tracks = {
        "h0->h1/qos2": ramp_trace(),
        "h0->h2/qos2": sawtooth_trace(),
    }
    rollup = per_qos_convergence(tracks)
    qos2 = rollup[2]
    assert qos2.channels == 2 and qos2.converged_channels == 1
    assert not qos2.converged
    assert qos2.convergence_time_ns is None

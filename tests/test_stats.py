"""Unit tests for statistics helpers (percentiles, samplers, convergence)."""

import math

import pytest

from repro.analysis.convergence import convergence_time_ns, smooth, steady_value
from repro.sim.engine import Simulator
from repro.stats.sampler import PeriodicSampler
from repro.stats.summary import percentile, relative_gap


def test_percentile_basic():
    data = list(range(1, 101))
    assert percentile(data, 50) == pytest.approx(50.5)
    assert percentile(data, 99) == pytest.approx(99.01)
    assert percentile(data, 99.9) == pytest.approx(99.901)


def test_percentile_empty_is_nan():
    assert math.isnan(percentile([], 99))


def test_periodic_sampler_cadence():
    sim = Simulator()
    values = iter(range(100))
    sampler = PeriodicSampler(sim, 1000, lambda: next(values))
    sim.run(until=5500)
    assert sampler.samples == [(t * 1000, t) for t in range(6)]


def test_sampler_validation():
    with pytest.raises(ValueError):
        PeriodicSampler(Simulator(), 0, lambda: 1.0)


def test_steady_value_uses_tail():
    trace = [(i, 0.0 if i < 75 else 10.0) for i in range(100)]
    assert steady_value(trace, tail_fraction=0.25) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        steady_value([])


def test_smooth_flattens_sawtooth():
    saw = [(i, 1.0 if i % 2 else 0.0) for i in range(50)]
    smoothed = smooth(saw, window=5)
    mid = [v for _, v in smoothed[5:-5]]
    for v in mid:
        assert 0.3 < v < 0.7


def test_convergence_time_detects_settling():
    trace = [(i * 100, 0.0) for i in range(20)] + [(2000 + i * 100, 1.0) for i in range(60)]
    t = convergence_time_ns(trace, tolerance=0.1, smooth_window=1)
    assert t is not None
    assert 1900 <= t <= 2800


def test_convergence_time_none_when_drifting():
    trace = [(i, float(i)) for i in range(100)]
    assert convergence_time_ns(trace, tolerance=0.01, smooth_window=1) is None


def test_convergence_empty_trace():
    assert convergence_time_ns([]) is None


def test_convergence_immediate_when_flat():
    trace = [(i, 5.0) for i in range(10)]
    assert convergence_time_ns(trace) == 0


def test_relative_gap():
    assert relative_gap(10.0, 10.0) == 0.0
    assert relative_gap(5.0, 10.0) == pytest.approx(0.5)
    assert relative_gap(0.0, 0.0) == 0.0

"""Unit + property tests for RPC size distributions."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.qos import Priority
from repro.net.packet import MTU_BYTES
from repro.rpc.sizes import (
    ChoiceSize,
    FixedSize,
    LogNormalSize,
    production_mixture,
    production_size_dist,
)
from repro.sim.rng import WeightedChoice


def test_fixed_size():
    d = FixedSize(32 * 1024)
    rng = random.Random(0)
    assert d.sample(rng) == 32 * 1024
    assert d.mean_bytes() == 32 * 1024


def test_fixed_size_validation():
    with pytest.raises(ValueError):
        FixedSize(0)


def test_choice_size_samples_only_options():
    d = ChoiceSize([(100, 1.0), (200, 1.0)])
    rng = random.Random(1)
    seen = {d.sample(rng) for _ in range(200)}
    assert seen == {100, 200}
    assert d.mean_bytes() == pytest.approx(150.0)


def test_choice_size_respects_weights():
    d = ChoiceSize([(100, 9.0), (200, 1.0)])
    rng = random.Random(2)
    samples = [d.sample(rng) for _ in range(5000)]
    frac_small = samples.count(100) / len(samples)
    assert frac_small == pytest.approx(0.9, abs=0.03)


@pytest.mark.parametrize(
    "weights",
    [
        [0.6, 0.2, 0.2],  # normalised
        [9, 1, 4, 2],  # unnormalised ints
        [2.5, 1.0, 0.0, 0.0],  # zero-weight tail
    ],
)
def test_weighted_choice_is_stream_identical_to_random_choices(weights):
    """``pick`` must be ``rng.choices(..., k=1)[0]`` on the running
    interpreter: the same element and the same generator state after
    every draw, so swapping one for the other moves no seeded run."""
    population = list(range(len(weights)))
    choice = WeightedChoice(population, weights)
    for seed in range(5):
        ours, stdlib = random.Random(seed), random.Random(seed)
        for _ in range(10_000):
            assert choice.pick(ours) == stdlib.choices(population, weights, k=1)[0]
        assert ours.getstate() == stdlib.getstate()


def test_weighted_choice_validation():
    with pytest.raises(ValueError):
        WeightedChoice([], [])
    with pytest.raises(ValueError):
        WeightedChoice([1, 2], [1.0])
    with pytest.raises(ValueError):
        WeightedChoice([1, 2], [0.0, 0.0])


def test_choice_size_validation():
    with pytest.raises(ValueError):
        ChoiceSize([])
    with pytest.raises(ValueError):
        ChoiceSize([(100, 0.0)])


def test_lognormal_truncation_bounds():
    d = LogNormalSize(median_bytes=8192, sigma=2.0, min_bytes=512,
                      max_bytes=100_000)
    rng = random.Random(3)
    for _ in range(2000):
        s = d.sample(rng)
        assert 512 <= s <= 100_000


def test_lognormal_median_roughly_right():
    d = LogNormalSize(median_bytes=8192, sigma=1.0, min_bytes=1,
                      max_bytes=10**9)
    rng = random.Random(4)
    samples = sorted(d.sample(rng) for _ in range(4001))
    median = samples[2000]
    assert median == pytest.approx(8192, rel=0.15)


def test_lognormal_mean_estimate_close_to_empirical():
    d = LogNormalSize(median_bytes=8192, sigma=1.3)
    rng = random.Random(5)
    empirical = sum(d.sample(rng) for _ in range(20000)) / 20000
    assert d.mean_bytes() == pytest.approx(empirical, rel=0.1)


def test_lognormal_validation():
    with pytest.raises(ValueError):
        LogNormalSize(0, 1.0)
    with pytest.raises(ValueError):
        LogNormalSize(100, 1.0, min_bytes=10, max_bytes=5)


def test_production_ordering_pc_smallest():
    """Fig 1 shape: PC RPCs are generally smaller than NC, NC than BE."""
    mix = production_mixture()
    means = {p: mix[p].mean_bytes() for p in Priority}
    assert means[Priority.PC] < means[Priority.NC] < means[Priority.BE]


def test_production_pc_has_large_tail():
    """There are high-priority large PC RPCs (size/priority misaligned)."""
    d = production_size_dist(Priority.PC)
    rng = random.Random(6)
    biggest = max(d.sample(rng) for _ in range(20000))
    assert biggest > 32 * MTU_BYTES  # well beyond the median


def test_production_supports_overlap():
    """The per-class distributions overlap: some BE RPCs are smaller
    than some PC RPCs — why size-based priority fails."""
    pc = production_size_dist(Priority.PC)
    be = production_size_dist(Priority.BE)
    rng = random.Random(7)
    pc_samples = sorted(pc.sample(rng) for _ in range(2000))
    be_samples = sorted(be.sample(rng) for _ in range(2000))
    assert be_samples[99] < pc_samples[-100]


@settings(max_examples=50, deadline=None)
@given(
    median=st.floats(min_value=600, max_value=10**6),
    sigma=st.floats(min_value=0.1, max_value=3.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_lognormal_always_within_bounds(median, sigma, seed):
    d = LogNormalSize(median, sigma, min_bytes=512, max_bytes=2**20)
    rng = random.Random(seed)
    for _ in range(50):
        assert 512 <= d.sample(rng) <= 2**20
    assert 512 <= d.mean_bytes() <= 2**20

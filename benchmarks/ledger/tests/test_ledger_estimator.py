"""The quiet-time estimator on synthetic slices."""

import random

import pytest

from benchmarks.ledger import estimator


def _unit(rng: random.Random, slices: int = 40):
    return [rng.uniform(0.005, 0.1) for _ in range(slices)]


def test_interference_on_40_percent_of_samples_moves_estimate_under_1_percent():
    rng = random.Random(7)
    truth = _unit(rng)
    reps = [
        [t * rng.uniform(1.3, 2.0) if rng.random() < 0.4 else t for t in truth]
        for _ in range(12)
    ]
    estimate = estimator.quiet_time(reps)
    assert abs(estimate - sum(truth)) / sum(truth) < 0.01
    # The whole-run figure the estimator replaces is nowhere near.
    raw = sum(map(sum, reps)) / len(reps)
    assert raw / sum(truth) > 1.15


def test_fewer_than_five_repetitions_is_an_error():
    rng = random.Random(1)
    reps = [_unit(rng) for _ in range(estimator.MIN_REPS - 1)]
    with pytest.raises(ValueError, match="at least 5"):
        estimator.quiet_time(reps)


def test_ragged_or_empty_repetitions_are_an_error():
    with pytest.raises(ValueError, match="same, non-zero slice count"):
        estimator.quiet_time([[1.0, 2.0]] * 4 + [[1.0]])
    with pytest.raises(ValueError, match="same, non-zero slice count"):
        estimator.quiet_time([[]] * 5)


def test_pooled_slices_share_one_index():
    slices = [0.08, 0.075, 0.09, 0.11, 0.076, 0.2]
    assert estimator.quiet_time(estimator.pooled(slices)) == min(slices)


def test_quiet_share_weights_samples_by_their_slices_floor():
    reps = [[1.0, 2.0], [1.05, 2.5], [1.2, 2.1], [1.0, 2.0], [3.0, 2.19]]
    # quiet: 3 samples of the 1.0 slice, 4 of the 2.0 slice.
    assert estimator.quiet_share(reps) == pytest.approx((3 * 1.0 + 4 * 2.0) / (5 * 3.0))


def test_spreads_match_statistics_quantiles():
    values = [10.0, 10.5, 9.8, 10.2, 10.1, 11.0, 9.9, 10.0, 10.3, 10.4]
    assert estimator.quartile_spread(values) == pytest.approx(0.0443, abs=1e-3)
    assert estimator.range_share(values) == pytest.approx(1.2 / 10.15)
    assert estimator.quartile_spread([5.0]) == 0.0

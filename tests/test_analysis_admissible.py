"""Unit tests for admissible-region helpers and admitted-traffic bounds."""

import pytest

from repro.analysis.admissible import (
    guaranteed_admitted_share,
    inversion_free,
    is_admissible_mix,
    max_admissible_high_share,
)


def test_eq2_ordering_accepts_balanced_mix():
    # shares proportional to weights: a_i/phi_i all equal.
    assert is_admissible_mix([8 / 13, 4 / 13, 1 / 13], [8, 4, 1])


def test_eq2_ordering_rejects_top_heavy_mix():
    assert not is_admissible_mix([0.9, 0.08, 0.02], [8, 4, 1])


def test_eq2_validation():
    with pytest.raises(ValueError):
        is_admissible_mix([0.5, 0.5], [8, 4, 1])


def test_inversion_free_consistent_with_eq2_under_overload():
    weights = [8, 4, 1]
    # Deep overload: every class above its guaranteed rate.
    ok_mix = [0.45, 0.35, 0.20]
    bad_mix = [0.85, 0.10, 0.05]
    assert is_admissible_mix(ok_mix, weights)
    assert inversion_free(ok_mix, weights, mu=0.8, rho=2.5)
    assert not is_admissible_mix(bad_mix, weights)
    assert not inversion_free(bad_mix, weights, mu=0.8, rho=2.5)


def test_max_admissible_share_matches_lemma_two_qos():
    """For 2 QoS under full overload the boundary is phi/(phi+1)."""
    share = max_admissible_high_share([4, 1], mu=0.8, rho=2.0, tol=5e-4)
    assert share == pytest.approx(0.8, abs=0.01)


def test_max_admissible_share_three_qos():
    """With m:l fixed 2:1, Lemma 1 gives phi_h/(phi_h + 1.5 phi_m)."""
    share = max_admissible_high_share([8, 4, 1], mu=0.8, rho=2.0, tol=5e-4)
    assert share == pytest.approx(8 / 14, abs=0.02)


def test_max_admissible_share_grows_with_weight():
    light = max_admissible_high_share([8, 4, 1], mu=0.8, rho=1.4)
    heavy = max_admissible_high_share([50, 4, 1], mu=0.8, rho=1.4)
    assert heavy > light


def test_guaranteed_admitted_share_formula():
    # X_i <= (phi_i / sum phi) * mu / rho.
    val = guaranteed_admitted_share([8, 4, 1], 0, mu=0.8, rho=1.4)
    assert val == pytest.approx((8 / 13) * (0.8 / 1.4))


def test_guaranteed_share_inverse_in_rho():
    """The Fig-16 law: double the burstiness, halve the guarantee."""
    a = guaranteed_admitted_share([8, 4, 1], 0, mu=0.8, rho=1.4)
    b = guaranteed_admitted_share([8, 4, 1], 0, mu=0.8, rho=2.8)
    assert a / b == pytest.approx(2.0)


def test_guaranteed_share_validation():
    with pytest.raises(ValueError):
        guaranteed_admitted_share([8, 4, 1], 5, mu=0.8, rho=1.4)
    with pytest.raises(ValueError):
        guaranteed_admitted_share([8, 4, 1], 0, mu=0.8, rho=0.5)


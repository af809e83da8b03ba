"""Unit tests for experiment-driver helper logic (no simulation)."""

import random

import pytest

from repro.core.qos import Priority
from repro.experiments import fig14, fig15, fig16
from repro.experiments.fig24 import make_misaligned_mapper, misalignment_fraction
from repro.rpc.message import Rpc


def test_fig14_share_at_slo_interpolates():
    rows = [
        {"qos_h_share": share, "tail_h_us": tail}
        for share, tail in ((0.1, 5.0), (0.3, 15.0), (0.5, 35.0))
    ]
    assert fig14.share_at_slo(rows, 5.0) == pytest.approx(0.1)
    assert fig14.share_at_slo(rows, 10.0) == pytest.approx(0.2)
    assert fig14.share_at_slo(rows, 15.0) == pytest.approx(0.3)
    assert fig14.share_at_slo(rows, 25.0) == pytest.approx(0.4)
    # Above all measured tails: the last swept share.
    assert fig14.share_at_slo(rows, 100.0) == pytest.approx(0.5)


def test_fig15_spread_metric():
    rows = [
        {"input_mix": [0.25, 0.25, 0.5], "admitted_mix": [0.30, 0.25, 0.45]},
        {"input_mix": [0.60, 0.30, 0.1], "admitted_mix": [0.34, 0.28, 0.38]},
    ]
    assert fig15.admitted_spread(rows) == pytest.approx(0.04)


def test_fig16_fit_is_least_squares():
    # Perfect C/rho data: the fit recovers C exactly, error ~0.
    c = 0.45
    rows = [
        {"rho": rho, "admitted_qos_h_share": c / rho} for rho in (1.4, 1.6, 1.8, 2.0)
    ]
    assert fig16.fit_c(rows) == pytest.approx(c)
    assert fig16.fit_error(rows) < 1e-12


def test_fig24_mapper_shapes():
    rng = random.Random(0)
    mapper = make_misaligned_mapper(rng)
    frac = misalignment_fraction(mapper)
    # Figure-4-like: substantial but not total misalignment.
    assert 0.1 < frac < 0.7
    # The mapper emits valid QoS levels with plausible frequencies.
    rpc = Rpc(src=0, dst=1, priority=Priority.BE, payload_bytes=1000, issued_ns=0)
    draws = [mapper(rpc) for _ in range(500)]
    assert set(draws) <= {0, 1, 2}
    # BE leaks upward: a meaningful share of BE rides QoS_h (Fig 4).
    assert draws.count(0) > 50


def test_fig24_mapper_splits_sum_to_one():
    rng = random.Random(1)
    mapper = make_misaligned_mapper(rng)
    for split in mapper.table.values():
        assert sum(split) == pytest.approx(1.0)
        assert all(s > 0 for s in split)

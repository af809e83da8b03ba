"""Tests for the theory-figure drivers (Figs 8, 9, 10).

The paper's claims about Figs 8 and 9 are the drivers' own ``check``
(``tests/test_claims.py`` runs them on both sweeps); these hold the
rest of the rows.
"""

import pytest

from repro.experiments import fig09, fig10
from repro.runner.point import Point


def _fig09_rows(weights, shares):
    return [
        fig09.run_point(
            Point("fig09", {"weights": weights, "mu": 0.8, "rho": 1.4, "share": x}), 0
        )
        for x in shares
    ]


def _fig10_rows(shares):
    params = {"mu": 0.8, "rho": 1.2, "phi": 4.0, "period_us": 500.0, "periods": 2}
    return [
        fig10.run_point(Point("fig10", {**params, "share": x}), 0) for x in shares
    ]


def test_fig9_delays_nonnegative_and_bounded():
    for r in _fig09_rows([8, 4, 1], [0.1, 0.5, 0.9]):
        for d in (r["delay_h"], r["delay_m"], r["delay_l"]):
            assert 0.0 <= d <= 0.8


def test_fig10_sim_tracks_theory():
    rows = _fig10_rows([0.1, 0.4, 0.7, 0.85, 0.95])
    assert fig10.max_error_h(rows) < 0.01
    for r in rows:
        assert r["sim_h"] == pytest.approx(r["theory_h"], abs=0.01)
        # QoS_l may sit slightly above the fluid value (packetization),
        # exactly as the paper reports for its own simulator.
        assert r["sim_l"] == pytest.approx(r["theory_l"], abs=0.02)
        assert r["sim_l"] >= r["theory_l"] - 0.01


def test_fig10_detects_priority_inversion_point():
    rows = {round(r["share"], 2): r for r in _fig10_rows([0.75, 0.85])}
    assert rows[0.75]["sim_h"] < rows[0.75]["sim_l"]  # no inversion below phi/(phi+1)
    assert rows[0.85]["sim_h"] > rows[0.85]["sim_l"]  # inversion beyond it

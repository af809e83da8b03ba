"""Tests for the theory-figure drivers (Figs 8, 9, 10)."""

import pytest

from repro.experiments import fig08, fig09, fig10
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


def test_fig8_curve_shape():
    rows = [fig08.run_point(p, p.seed) for p in fig08.sweep("paper")]
    assert rows[0]["inversion_share"] == pytest.approx(0.8)
    # QoS_h delay-free region, then growth, then the flat saturation.
    by_share = {round(r["share"], 2): (r["delay_h"], r["delay_l"]) for r in rows}
    assert by_share[0.25][0] == 0.0
    assert by_share[1.0][0] == pytest.approx(0.8 * (1 - 1 / 1.2))
    assert by_share[0.0][1] == pytest.approx(0.8 * (1 - 1 / 1.2))
    assert by_share[1.0][1] == 0.0
    assert "priority inversion" in fig08.table(rows)


def test_fig9_inversion_moves_right_with_weight():
    shares = [0.05 + 0.05 * i for i in range(18)]
    light = _fig09_rows([8, 4, 1], shares)
    heavy = _fig09_rows([50, 4, 1], shares)
    assert "weights (8, 4, 1)" in fig09.table(light + heavy)
    assert "weights (50, 4, 1)" in fig09.table(light + heavy)
    # Lemma-1 boundaries with the 2:1 m:l split.
    assert fig09.inversion_share(light) == pytest.approx(8 / 14, abs=0.06)
    assert fig09.inversion_share(heavy) == pytest.approx(50 / 56, abs=0.06)


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

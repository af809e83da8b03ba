"""The drivers' ``check`` as the one judge of each paper claim.

fig08 and fig09 are analytic (their fast sweeps run in milliseconds)
and fig10's fast rows are pinned literally in ``test_fig10_golden``, so
these three hold the claim machinery to real rows: every claim the fast
profile bounds passes, the ids are the ones EXPERIMENTS.md lists, and
moving one row value flips exactly the claim that measures it.
"""

from __future__ import annotations

import copy
import math

import pytest

from repro.experiments import fig08, fig09, fig10
from repro.runner.point import Claim, judge
from tests.test_fig10_golden import _ROWS as FIG10_ROWS

DRIVERS = {"fig08": fig08, "fig09": fig09, "fig10": fig10}

FAST_IDS = {
    "fig08": [
        "fig08/delay-nonnegative",
        "fig08/h-delay-free-low-share",
        "fig08/h-delay-at-0.5",
        "fig08/inversion-share",
        "fig08/inversion-onset-min",
        "fig08/inversion-onset-max",
        "fig08/inverted-at-0.9",
        "fig08/h-saturation-error",
        "fig08/l-saturation-error",
        "fig08/l-delay-at-1",
    ],
    "fig09": [
        "fig09/light-edge-min",
        "fig09/light-edge-max",
        "fig09/heavy-edge-min",
        "fig09/heavy-edge-max",
        "fig09/heavy-edge-beyond-light",
        "fig09/m-cost-at-0.4",
        "fig09/m-cost-at-0.5",
    ],
    "fig10": ["fig10/h-error", "fig10/l-undershoot", "fig10/l-overshoot"],
}


def fast_rows(figure):
    if figure == "fig10":
        return copy.deepcopy(FIG10_ROWS)
    driver = DRIVERS[figure]
    return [driver.run_point(p, p.seed) for p in driver.sweep("fast")]


def verdicts(figure, rows):
    return {c.id: c.passed for c in DRIVERS[figure].check(rows, "fast")}


@pytest.mark.parametrize("figure", sorted(FAST_IDS))
def test_fast_claims_all_pass_under_their_pinned_ids(figure):
    claims = DRIVERS[figure].check(fast_rows(figure), "fast")
    assert [c.id for c in claims] == FAST_IDS[figure]
    assert all(isinstance(c, Claim) and c.passed for c in claims), claims


def _row(rows, share, weights=None):
    (row,) = [
        r
        for r in rows
        if math.isclose(r["share"], share)
        and (weights is None or r["weights"] == weights)
    ]
    return row


@pytest.mark.parametrize(
    "figure, perturb, flipped",
    [
        ("fig08", lambda rows: _row(rows, 0.5).update(delay_h=0.01), "h-delay-at-0.5"),
        ("fig08", lambda rows: _row(rows, 1.0).update(delay_l=0.01), "l-delay-at-1"),
        (
            "fig09",
            lambda rows: _row(rows, 0.4, [50, 4, 1]).update(delay_m=0.0),
            "m-cost-at-0.4",
        ),
        ("fig10", lambda rows: rows[0].update(sim_l=0.12), "l-undershoot"),
        ("fig10", lambda rows: rows[1].update(sim_h=0.02), "h-error"),
    ],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_one_moved_value_flips_exactly_its_claim(figure, perturb, flipped):
    rows = fast_rows(figure)
    before = verdicts(figure, rows)
    perturb(rows)
    after = verdicts(figure, rows)
    assert {cid for cid in before if before[cid] != after[cid]} == {
        f"{figure}/{flipped}"
    }


@pytest.mark.parametrize("figure", ["fig08", "fig09"])
def test_paper_claims_of_the_analytic_figures_all_pass(figure):
    """The paper grid measures what the fast one cannot: fig08's
    share-0.75 claim, which the fast profile leaves unbounded because
    its grid lacks the point (its ids above never name it)."""
    driver = DRIVERS[figure]
    rows = [driver.run_point(p, p.seed) for p in driver.sweep("paper")]
    claims = driver.check(rows, "paper")
    extra = {"fig08": {"fig08/not-inverted-at-0.75"}, "fig09": set()}[figure]
    assert {c.id for c in claims} == set(FAST_IDS[figure]) | extra
    assert all(c.passed for c in claims), claims


def test_judge_reads_nan_as_failed_and_refuses_unmeasured_bounds():
    (claim,) = judge({"x/nan": ("<", 1.0)}, {"x/nan": float("nan")})
    assert (claim.id, claim.bound, claim.passed) == ("x/nan", "< 1", False)
    assert math.isnan(claim.measured)
    with pytest.raises(KeyError, match="x/typo"):
        judge({"x/typo": ("<", 1.0)}, {"x/nan": 0.0})

"""Admissible region and admitted-traffic guarantees (Lemmas 1-2, §5.2).

The *admissible region* is the set of QoS-mixes with no priority
inversion: delay_bound_k <= delay_bound_{k+1} for every adjacent pair
(Equation 3).  Under full overload (every class above its guaranteed
rate) this reduces to the processing-time ordering of Equation 2:

    a_1 / phi_1 <= a_2 / phi_2 <= ... <= a_N / phi_N

This module provides both the algebraic test and a numeric region
finder based on the fluid simulator, plus the Section-5.2 lower bound
on admitted traffic:  X_i >= r * (phi_i / sum phi) * (mu / rho).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.analysis.fluid import simulate_fluid


def is_admissible_mix(shares: Sequence[float], weights: Sequence[float]) -> bool:
    """Equation 2: processing-time ordering across classes.

    Valid in the regime where every class's demand exceeds its
    guaranteed rate; it is the conservative algebraic form of the
    no-priority-inversion condition.
    """
    if len(shares) != len(weights):
        raise ValueError("shares and weights must have equal length")
    ratios = [s / w for s, w in zip(shares, weights)]
    return all(ratios[i] <= ratios[i + 1] + 1e-12 for i in range(len(ratios) - 1))


def inversion_free(
    shares: Sequence[float],
    weights: Sequence[float],
    mu: float = 0.8,
    rho: float = 1.4,
) -> bool:
    """Equation 3 evaluated numerically with the fluid simulator."""
    result = simulate_fluid(shares, weights, mu=mu, rho=rho)
    d = result.delays
    return all(d[k] <= d[k + 1] + 1e-9 for k in range(len(d) - 1))


def max_admissible_high_share(
    weights: Sequence[float],
    mu: float = 0.8,
    rho: float = 1.4,
    ml_ratio: float = 2.0,
    tol: float = 1e-3,
) -> float:
    """Largest QoS_h-share with no priority inversion (bisection).

    Mirrors how an operator would use the open-source simulator "to help
    define the admissible region and set the right SLOs" (§6.1).  The
    remainder is split QoS_m : QoS_l at ``ml_ratio`` (2:1 in Fig 9).
    """

    def mix_for(x: float) -> List[float]:
        rest = 1.0 - x
        if len(weights) == 2:
            return [x, rest]
        m = rest * ml_ratio / (ml_ratio + 1.0)
        return [x, m, rest - m]

    lo, hi = 0.0, 1.0
    if not inversion_free(mix_for(lo), weights, mu, rho):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if inversion_free(mix_for(mid), weights, mu, rho):
            lo = mid
        else:
            hi = mid
    return lo


def guaranteed_admitted_share(
    weights: Sequence[float], level: int, mu: float, rho: float
) -> float:
    """Section 5.2: minimum admitted share of line rate for one QoS.

    If the maximum instantaneous rate X_i * rho / mu stays below the
    guaranteed rate g_i, the class sees zero queueing delay, so at least
    X_i = (phi_i / sum phi) * (mu / rho) (as a fraction of line rate) is
    always admitted regardless of the SLO.  Inversely proportional to
    burstiness rho — the Figure-16 law.
    """
    if not 0 <= level < len(weights):
        raise ValueError("level out of range")
    if not 0 < mu <= rho:
        raise ValueError("need 0 < mu <= rho")
    return (weights[level] / sum(weights)) * (mu / rho)


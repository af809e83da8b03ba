"""Fluid (GPS) worst-case delay simulation for N QoS classes.

The closed-form bounds of Appendix B stop at two classes; the paper
extends to three classes "via empirical analysis in simulation"
(Figure 9).  This module is that tool: it simulates the *fluid* GPS
system — the idealization WFQ approximates — under the Figure-7
arrival pattern and extracts each class's worst-case delay as the
maximum horizontal distance between its cumulative arrival and service
curves (the network-calculus delay bound).

Everything is normalized: line rate 1, period 1, so delays are
fractions of the period, directly comparable with
:mod:`repro.analysis.delay_bounds`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

_EPS = 1e-12


@dataclass
class FluidResult:
    """Outcome of one fluid run.

    ``delays[i]`` is class i's worst-case normalized delay;
    ``arrival_curves`` / ``service_curves`` are the piecewise-linear
    cumulative curves as (time, cumulative volume) breakpoints.
    """

    delays: List[float]
    arrival_curves: List[List[Tuple[float, float]]]
    service_curves: List[List[Tuple[float, float]]]


def _gps_rates(
    arrival_rates: Sequence[float],
    backlogs: Sequence[float],
    weights: Sequence[float],
) -> List[float]:
    """Instantaneous GPS service rates (progressive filling).

    A class with backlog demands unlimited rate; a class without backlog
    demands exactly its arrival rate.  Capacity 1 is split by weight
    among unsatisfied classes, capped classes return their surplus.
    """
    n = len(weights)
    rates = [0.0] * n
    remaining = 1.0
    # Classes that could use service now.
    active = [
        i for i in range(n) if backlogs[i] > _EPS or arrival_rates[i] > _EPS
    ]
    capped: Set[int] = set()
    while active and remaining > _EPS:
        pool = [i for i in active if i not in capped]
        if not pool:
            break
        total_w = sum(weights[i] for i in pool)
        newly_capped = []
        for i in pool:
            share = remaining * weights[i] / total_w
            if backlogs[i] <= _EPS and arrival_rates[i] < share - _EPS:
                newly_capped.append(i)
        if not newly_capped:
            for i in pool:
                rates[i] += remaining * weights[i] / total_w
            remaining = 0.0
            break
        for i in newly_capped:
            rates[i] = arrival_rates[i]
            remaining -= arrival_rates[i]
            capped.add(i)
    return rates


def simulate_fluid(
    shares: Sequence[float],
    weights: Sequence[float],
    mu: float = 0.8,
    rho: float = 1.4,
) -> FluidResult:
    """Run the fluid system for one Figure-7 period and return delays.

    ``shares`` is the QoS-mix (fractions of arrivals per class, summing
    to 1); ``weights`` the WFQ weights.  The burst phase lasts mu/rho
    with aggregate arrival rate rho; afterwards arrivals stop and the
    backlog drains (guaranteed before the period ends since mu < 1 and
    GPS is work-conserving).
    """
    if len(shares) != len(weights):
        raise ValueError("shares and weights must have equal length")
    if abs(sum(shares) - 1.0) > 1e-9:
        raise ValueError("shares must sum to 1")
    if any(s < 0 for s in shares) or any(w <= 0 for w in weights):
        raise ValueError("shares must be >= 0 and weights > 0")
    if not 0 < mu < 1 or rho < mu:
        raise ValueError("need 0 < mu < 1 and rho >= mu")

    n = len(shares)
    t_on = mu / rho
    burst_rates = [rho * s for s in shares]

    t = 0.0
    backlogs = [0.0] * n
    arrivals = [[(0.0, 0.0)] for _ in range(n)]
    services = [[(0.0, 0.0)] for _ in range(n)]
    cum_arr = [0.0] * n
    cum_srv = [0.0] * n

    horizon = 1.0
    for _ in range(10_000):  # safety bound on fluid events
        in_burst = t < t_on - _EPS
        rates_in = burst_rates if in_burst else [0.0] * n
        rates_out = _gps_rates(rates_in, backlogs, weights)

        # Next event: burst end, a backlog emptying, or horizon.
        dt = (t_on - t) if in_burst else (horizon - t)
        for i in range(n):
            drain = rates_out[i] - rates_in[i]
            if backlogs[i] > _EPS and drain > _EPS:
                dt = min(dt, backlogs[i] / drain)
        if dt <= _EPS:
            dt = _EPS
        t_next = min(t + dt, horizon)
        step = t_next - t
        for i in range(n):
            cum_arr[i] += rates_in[i] * step
            cum_srv[i] += rates_out[i] * step
            backlogs[i] = max(0.0, backlogs[i] + (rates_in[i] - rates_out[i]) * step)
            arrivals[i].append((t_next, cum_arr[i]))
            services[i].append((t_next, cum_srv[i]))
        t = t_next
        if t >= horizon - _EPS:
            break
        if t >= t_on - _EPS and all(b <= _EPS for b in backlogs):
            # Everything drained: extend flat curves to the horizon.
            for i in range(n):
                arrivals[i].append((horizon, cum_arr[i]))
                services[i].append((horizon, cum_srv[i]))
            break

    delays = [
        _max_horizontal_distance(arrivals[i], services[i]) for i in range(n)
    ]
    return FluidResult(delays=delays, arrival_curves=arrivals, service_curves=services)


def _inverse_time(curve: List[Tuple[float, float]], level: float) -> float:
    """Earliest time the cumulative curve reaches ``level``."""
    if level <= curve[0][1] + _EPS:
        return curve[0][0]
    for (t0, v0), (t1, v1) in zip(curve, curve[1:]):
        if v1 + _EPS >= level:
            if v1 <= v0 + _EPS:
                continue  # flat segment below level
            return t0 + (t1 - t0) * (level - v0) / (v1 - v0)
    return curve[-1][0]


def _max_horizontal_distance(
    arrival: List[Tuple[float, float]], service: List[Tuple[float, float]]
) -> float:
    """Max over t of (inverse-service(A(t)) - t): the delay bound.

    Both curves are piecewise linear, so the supremum is attained either
    at an arrival breakpoint (evaluate the bit arriving at t) or at a
    *service* breakpoint (evaluate the bit whose service completes
    exactly there — its arrival time is the inverse arrival of the
    breakpoint's cumulative level, generally interior to an arrival
    segment).  Checking only arrival breakpoints misses the second
    family, e.g. the 2-QoS case where QoS_l's worst bit is the one
    served exactly when the burst ends.
    """
    levels = {v for _, v in arrival} | {v for _, v in service}
    worst = 0.0
    for level in levels:
        if level <= _EPS:
            continue
        served = _inverse_time(service, level - _EPS)
        arrived = _inverse_time(arrival, level - _EPS)
        worst = max(worst, served - arrived)
    return max(0.0, worst)


def sweep_three_qos(
    high_shares: Sequence[float],
    weights: Sequence[float] = (8, 4, 1),
    mu: float = 0.8,
    rho: float = 1.4,
    ml_ratio: float = 2.0,
) -> List[Tuple[float, float, float, float]]:
    """The Figure-9 sweep: vary QoS_h-share, split the rest m:l.

    Returns rows (x, delay_h, delay_m, delay_l).  The paper fixes the
    QoS_m : QoS_l remainder split at 2:1.
    """
    rows = []
    for x in high_shares:
        rest = 1.0 - x
        m_share = rest * ml_ratio / (ml_ratio + 1.0)
        l_share = rest - m_share
        result = simulate_fluid([x, m_share, l_share], weights, mu=mu, rho=rho)
        rows.append((x, result.delays[0], result.delays[1], result.delays[2]))
    return rows

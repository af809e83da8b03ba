"""RPC size distributions: fixed, mixtures, and production-like.

Figure 1 of the paper shows storage RPC sizes per priority class
spanning five orders of magnitude, with PC RPCs generally smaller than
NC/BE but with a meaningful tail of *large* PC RPCs — the misalignment
that breaks size-based prioritization.  We model each class as a
log-normal over MTU counts (log-normal payloads are the standard fit
for datacenter storage message sizes), truncated so simulations stay
tractable, with parameters chosen to reproduce those qualitative
features: PC median well below NC/BE, overlapping supports, heavy
upper tails.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.qos import Priority
from repro.net.packet import MTU_BYTES
from repro.sim.rng import WeightedChoice


class SizeDistribution:
    """Interface: sample a payload size in bytes."""

    def sample(self, rng: random.Random) -> int:
        raise NotImplementedError

    def mean_bytes(self) -> float:
        """Analytic or estimated mean (used to convert load -> RPC rate)."""
        raise NotImplementedError


@dataclass(frozen=True)
class FixedSize(SizeDistribution):
    """Every RPC has the same payload (e.g. the 32 KB WRITEs of §6.2)."""

    payload_bytes: int

    def __post_init__(self) -> None:
        if self.payload_bytes <= 0:
            raise ValueError("payload must be positive")

    def sample(self, rng: random.Random) -> int:
        return self.payload_bytes

    def mean_bytes(self) -> float:
        return float(self.payload_bytes)


class ChoiceSize(SizeDistribution):
    """Discrete mixture of payload sizes (e.g. the 32 KB/64 KB mix of §6.8)."""

    def __init__(self, options: Sequence[Tuple[int, float]]) -> None:
        if not options:
            raise ValueError("need at least one option")
        if any(size <= 0 or weight <= 0 for size, weight in options):
            raise ValueError("sizes and weights must be positive")
        self._choice = WeightedChoice(
            [size for size, _ in options], [weight for _, weight in options]
        )
        total = sum(weight for _, weight in options)
        self._mean = sum(s * w for s, w in options) / total

    def sample(self, rng: random.Random) -> int:
        return self._choice.pick(rng)

    def mean_bytes(self) -> float:
        return self._mean


class LogNormalSize(SizeDistribution):
    """Log-normal payload size, truncated to [min_bytes, max_bytes].

    ``median_bytes`` and ``sigma`` parameterize the underlying normal in
    log space; the mean of the *truncated* distribution is estimated by
    deterministic quadrature so load conversion is stable across runs.
    """

    def __init__(
        self,
        median_bytes: float,
        sigma: float,
        min_bytes: int = 512,
        max_bytes: int = 1 << 20,
    ) -> None:
        if median_bytes <= 0 or sigma <= 0:
            raise ValueError("median and sigma must be positive")
        if min_bytes <= 0 or max_bytes < min_bytes:
            raise ValueError("invalid truncation bounds")
        self._mu = math.log(median_bytes)
        self._sigma = sigma
        self._min = min_bytes
        self._max = max_bytes
        self._mean = self._estimate_mean()

    def _estimate_mean(self, samples: int = 4096) -> float:
        # Deterministic stratified estimate over the quantile grid.
        total = 0.0
        for i in range(samples):
            q = (i + 0.5) / samples
            z = _norm_ppf(q)
            val = math.exp(self._mu + self._sigma * z)
            total += min(max(val, self._min), self._max)
        return total / samples

    def sample(self, rng: random.Random) -> int:
        val = rng.lognormvariate(self._mu, self._sigma)
        return int(min(max(val, self._min), self._max))

    def mean_bytes(self) -> float:
        return self._mean


def _norm_ppf(q: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation)."""
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be in (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if q < p_low:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
               ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    if q > 1.0 - p_low:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / \
               ((((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0)
    u = q - 0.5
    t = u * u
    return (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * u / \
           (((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0)


#: Production-like per-class size models (see module docstring).
_PRODUCTION_PARAMS: Dict[Priority, Tuple[float, float]] = {
    Priority.PC: (2.0 * MTU_BYTES, 1.3),
    Priority.NC: (8.0 * MTU_BYTES, 1.4),
    Priority.BE: (24.0 * MTU_BYTES, 1.4),
}


def production_size_dist(
    priority: Priority, max_bytes: int = 256 * MTU_BYTES
) -> LogNormalSize:
    """The production-like size distribution for one priority class."""
    median, sigma = _PRODUCTION_PARAMS[priority]
    return LogNormalSize(median, sigma, min_bytes=512, max_bytes=max_bytes)


def production_mixture() -> Dict[Priority, SizeDistribution]:
    """Per-class production-like distributions keyed by priority."""
    return {prio: production_size_dist(prio) for prio in Priority}

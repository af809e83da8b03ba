"""Open-loop workload generators.

Two arrival patterns cover the paper's experiments:

* **steady** — Poisson arrivals at a constant offered load (used when a
  host "issues RPCs at line rate", load 1.0);
* **burst** — the Figure-7 on/off pattern: within each period, traffic
  arrives at instantaneous (burst) load ``rho`` for a fraction
  ``mu / rho`` of the period and is idle for the rest, so the average
  load is ``mu``.  This is the model the delay analysis of Section 4
  and the 33/144-node experiments use (mu=0.8, rho=1.4 by default).

Arrivals within each on-window are Poisson; a deterministic paced mode
(``deterministic=True``) reproduces the exact fluid arrival curve for
validating theory (Figure 10), where randomness would blur the
worst-case delay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from repro.core.qos import Priority
from repro.rpc.sizes import SizeDistribution
from repro.rpc.stack import RpcStack
from repro.sim.engine import Simulator
from repro.sim.rng import WeightedChoice

#: Per-priority traffic mix, e.g. {PC: 0.6, NC: 0.3, BE: 0.1}.
PriorityMix = Dict[Priority, float]


@dataclass(frozen=True)
class BurstPattern:
    """The Figure-7 arrival model.

    Attributes:
        mu: average load (arrival rate over the period / line rate).
        rho: burst load (max instantaneous arrival rate / line rate).
        period_ns: length of one burst+idle cycle.  The theoretical
            delay bounds are fractions of this period.
    """

    mu: float = 0.8
    rho: float = 1.4
    period_ns: int = 100_000

    def __post_init__(self) -> None:
        if not 0 < self.mu <= self.rho:
            raise ValueError("need 0 < mu <= rho")
        if self.period_ns <= 0:
            raise ValueError("period must be positive")

    @property
    def on_fraction(self) -> float:
        return self.mu / self.rho

    @property
    def on_ns(self) -> int:
        return int(self.period_ns * self.on_fraction)


def steady_pattern(load: float, period_ns: int = 100_000) -> BurstPattern:
    """A degenerate burst pattern that is always on (rho == mu == load)."""
    return BurstPattern(mu=load, rho=load, period_ns=period_ns)


class OpenLoopSource:
    """Issues RPCs open-loop from one stack to a set of destinations.

    ``offered_load`` is expressed relative to ``line_rate_bps`` (payload
    bits only); sizes come from either one shared distribution or a
    per-priority mapping; the priority of each RPC is drawn from
    ``priority_mix``.
    """

    def __init__(
        self,
        sim: Simulator,
        stack: RpcStack,
        dsts: Sequence[int],
        priority_mix: PriorityMix,
        size_dist: Union[SizeDistribution, Dict[Priority, SizeDistribution]],
        pattern: BurstPattern,
        line_rate_bps: float = 100e9,
        rng: Optional[random.Random] = None,
        start_ns: int = 0,
        stop_ns: Optional[int] = None,
        deterministic: bool = False,
    ) -> None:
        if not dsts:
            raise ValueError("need at least one destination")
        total_mix = sum(priority_mix.values())
        if total_mix <= 0:
            raise ValueError("priority mix must have positive mass")
        self.sim = sim
        self.stack = stack
        self.dsts = list(dsts)
        self.priorities = list(priority_mix)
        self.mix_weights = [priority_mix[p] / total_mix for p in self.priorities]
        self.size_dist = size_dist
        self.pattern = pattern
        # Fixed-seed fallback for seedless construction in unit tests;
        # sweep entry points always pass the per-point stream.
        self.rng = (
            rng if rng is not None else random.Random(1)  # simlint: ignore[SIM013]
        )
        self.stop_ns = stop_ns
        self.deterministic = deterministic
        self.issued = 0
        # Resolved once: the per-RPC draw is a pick, an optional
        # destination draw and a size sample, nothing else.
        self._priority_choice = WeightedChoice(self.priorities, self.mix_weights)
        self._only_dst: Optional[int] = self.dsts[0] if len(self.dsts) == 1 else None
        self._dist_of: Dict[Priority, SizeDistribution] = (
            size_dist
            if isinstance(size_dist, dict)
            else dict.fromkeys(self.priorities, size_dist)
        )
        mean_bytes = self._mean_payload_bytes()
        burst_bps = pattern.rho * line_rate_bps
        self._rpcs_per_on_window = burst_bps * (pattern.on_ns / 1e9) / (mean_bytes * 8)
        self.sim.post(start_ns - sim.now, self._on_period_start)

    def _mean_payload_bytes(self) -> float:
        if isinstance(self.size_dist, dict):
            return sum(
                w * self.size_dist[p].mean_bytes()
                for p, w in zip(self.priorities, self.mix_weights)
            )
        return self.size_dist.mean_bytes()

    def _on_period_start(self) -> None:
        if self.stop_ns is not None and self.sim.now >= self.stop_ns:
            return
        on_ns = self.pattern.on_ns
        # The whole on-window goes in as one pre-sorted run: the kernel
        # holds one heap slot for it, not one per arrival.
        if self.deterministic:
            count = max(1, int(round(self._rpcs_per_on_window)))
            offsets = [(int(i * on_ns / count), ()) for i in range(count)]
        else:
            # Poisson arrivals in the on-window: draw the count, then
            # place arrivals uniformly (standard conditional property).
            lam = self._rpcs_per_on_window
            count = _poisson_draw(self.rng, lam)
            draw = self.rng.random
            offsets = [(int(draw() * on_ns), ()) for _ in range(count)]
        self.sim.post_run(self._issue_one, offsets)
        self.sim.post(self.pattern.period_ns, self._on_period_start)

    def _issue_one(self) -> None:
        if self.stop_ns is not None and self.sim.now >= self.stop_ns:
            return
        rng = self.rng
        priority = self._priority_choice.pick(rng)
        dst = self._only_dst
        if dst is None:
            dst = self.dsts[rng.randrange(len(self.dsts))]
        payload = self._dist_of[priority].sample(rng)
        self.stack.issue(dst, priority, payload)
        self.issued += 1


def byte_mix_to_rpc_mix(
    byte_mix: Dict[Priority, float],
    size_dists: Dict[Priority, SizeDistribution],
) -> Dict[Priority, float]:
    """Convert a byte-share QoS-mix into per-RPC sampling weights.

    The paper quotes input QoS-mixes as shares of *traffic* (bytes).
    When priority classes have different size distributions (production
    workloads: BE RPCs are much larger than PC), drawing priorities
    with the byte shares directly would skew the realized byte mix; the
    correct per-RPC weight is byte_share / mean_size.
    """
    weights = {
        prio: share / size_dists[prio].mean_bytes()
        for prio, share in byte_mix.items()
        if share > 0
    }
    total = sum(weights.values())
    return {prio: w / total for prio, w in weights.items()}


def _poisson_draw(rng: random.Random, lam: float) -> int:
    """Poisson sample.  Knuth for small lambda, normal approx for large."""
    if lam <= 0:
        return 0
    if lam > 64:
        # Normal approximation with continuity correction.
        val = rng.gauss(lam, lam ** 0.5)
        return max(0, int(round(val)))
    threshold = 2.718281828459045 ** (-lam)
    k = 0
    p = 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1

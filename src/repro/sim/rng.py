"""Seeded randomness helpers.

Every stochastic component in the simulator draws from an explicitly
seeded generator so that experiments are reproducible.  Components that
need independent streams derive them with :func:`substream`, which hashes
a label into the parent seed — adding a new consumer never perturbs the
draws seen by existing ones (unlike sharing one ``random.Random``).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from bisect import bisect
from typing import Generic, Iterator, Sequence, TypeVar

T = TypeVar("T")


def make_rng(seed: int) -> random.Random:
    """Create a ``random.Random`` seeded deterministically."""
    return random.Random(seed)


def substream(seed: int, label: str) -> random.Random:
    """Derive an independent deterministic stream from (seed, label)."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class WeightedChoice(Generic[T]):
    """``rng.choices(population, weights, k=1)[0]``, weights summed once.

    ``random.choices`` rebuilds the cumulative weights and a result list
    on every call; per draw it is one ``random()`` and one bisect, which
    is all :meth:`pick` does — the same draw from the same stream, so
    swapping one for the other leaves every seeded run unchanged.
    """

    __slots__ = ("_population", "_cum_weights", "_total", "_hi")

    def __init__(self, population: Sequence[T], weights: Sequence[float]) -> None:
        self._population = list(population)
        self._cum_weights = list(itertools.accumulate(weights))
        if len(self._cum_weights) != len(self._population) or not self._population:
            raise ValueError("need one weight per population element")
        self._total = self._cum_weights[-1] + 0.0
        if self._total <= 0.0 or not math.isfinite(self._total):
            raise ValueError("total of weights must be positive and finite")
        self._hi = len(self._population) - 1

    def pick(self, rng: random.Random) -> T:
        return self._population[
            bisect(self._cum_weights, rng.random() * self._total, 0, self._hi)
        ]


def poisson_interarrivals_ns(rng: random.Random, rate_per_sec: float) -> Iterator[int]:
    """Yield successive exponential inter-arrival gaps in nanoseconds.

    ``rate_per_sec`` is the mean arrival rate; gaps are at least 1 ns so
    that open-loop generators always make forward progress.
    """
    if rate_per_sec <= 0:
        raise ValueError("arrival rate must be positive")
    scale_ns = 1e9 / rate_per_sec
    while True:
        yield max(1, int(rng.expovariate(1.0) * scale_ns))

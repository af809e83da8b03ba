"""Time-series sampling inside a simulation.

Experiments that report dynamics over time (admit-probability and
throughput traces of Figures 17/18/28/29, outstanding-RPC CDFs of
Figure 13) install a :class:`PeriodicSampler` that polls a callable on a
fixed simulated-time cadence.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

from repro.sim.engine import Simulator


class PeriodicSampler:
    """Poll ``probe()`` every ``interval_ns`` and record (time, value)."""

    def __init__(
        self,
        sim: Simulator,
        interval_ns: int,
        probe: Callable[[], float],
        start_ns: int = 0,
    ):
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        self.sim = sim
        self.interval_ns = interval_ns
        self.probe = probe
        self.samples: List[Tuple[int, float]] = []
        self._stopped = False
        sim.post(start_ns - sim.now, self._tick)

    def stop(self) -> None:
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        self.samples.append((self.sim.now, self.probe()))
        self.sim.post(self.interval_ns, self._tick)

    def values(self) -> List[float]:
        return [v for _, v in self.samples]

    def times_ns(self) -> List[int]:
        return [t for t, _ in self.samples]


class RateMeter:
    """Turns a monotonically increasing byte counter into Gbps samples.

    ``counter()`` must return cumulative bytes; each poll yields the
    average rate over the last interval.
    """

    def __init__(
        self,
        sim: Simulator,
        interval_ns: int,
        counter: Callable[[], int],
        start_ns: int = 0,
    ):
        self._last_bytes = 0
        self._first = True

        def probe() -> float:
            nonlocal_vals = self._step(counter())
            return nonlocal_vals

        self.interval_ns = interval_ns
        self.sampler = PeriodicSampler(sim, interval_ns, probe, start_ns=start_ns)

    def _step(self, current_bytes: int) -> float:
        if self._first:
            self._first = False
            self._last_bytes = current_bytes
            return 0.0
        delta = current_bytes - self._last_bytes
        self._last_bytes = current_bytes
        return delta * 8.0 / self.interval_ns  # bytes per ns*8 == Gbps

    @property
    def samples(self) -> List[Tuple[int, float]]:
        return self.sampler.samples

    def values_gbps(self) -> List[float]:
        return self.sampler.values()

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


"""SLO burn-rate monitoring over metrics snapshots.

The report layer answers "what was the whole-run SLO miss rate"; this
module answers the operational question "is the SLO budget burning too
fast *right now*" — the multiwindow burn-rate alerting pattern used for
continuously-measured tail-latency SLOs (SWP, Zhao et al., argues SLO
compliance from exactly such distributions; Aequitas' claim is that
admission control keeps them flat under overload).

A :class:`SloMonitor` consumes the ``(time_ns, snapshot)`` stream a
:class:`~repro.obs.metrics.MetricsRegistry` sampler produces — the
wall-clock sampler of the live runtime (:mod:`repro.live.telemetry`), or
a recorded metrics log replayed post-mortem.  Per SLO-carrying QoS level
it derives cumulative ``(tracked, missed)`` totals from each snapshot,
differences them over a short and a long window, normalizes each
window's miss rate by the SLO's allowed miss rate (the error budget:
``1 - percentile/100``), and raises a structured :class:`Alert` when
**both** windows burn faster than ``threshold`` — the long window
rejects blips, the short window proves the burn is still happening.  A
firing level resolves (with a second alert record) once both windows
drop below ``resolve_threshold``, so "no alert after convergence" is a
checkable property of a run.

Totals come from the ``slo_tracked{qos=N}`` / ``slo_miss{qos=N}``
counters the live client maintains from each RPC's exact ``slo_met``
verdict (terminated RPCs that never produced a latency sample count as
misses); a snapshot without them reads as no new data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.core.slo import SLOMap

#: One registry snapshot: flat label -> value mapping (see
#: :meth:`MetricsRegistry.snapshot`).
Snapshot = Mapping[str, object]


@dataclass(frozen=True)
class BurnRateConfig:
    """Window geometry and thresholds for the multiwindow burn alert."""

    short_window_ns: int = 5_000_000_000
    long_window_ns: int = 30_000_000_000
    #: Burn multiple (miss rate / allowed miss rate) that fires.
    threshold: float = 2.0
    #: Burn multiple below which a firing level resolves (hysteresis).
    resolve_threshold: float = 1.0

    def __post_init__(self) -> None:
        if self.short_window_ns <= 0 or self.long_window_ns <= 0:
            raise ValueError("windows must be positive")
        if self.short_window_ns > self.long_window_ns:
            raise ValueError("short window must not exceed the long window")
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if not 0 < self.resolve_threshold <= self.threshold:
            raise ValueError("resolve threshold must be in (0, threshold]")

    def scaled_to(self, duration_ns: int) -> "BurnRateConfig":
        """Windows clipped for a short run (demo/CI horizons): the long
        window becomes at most a third of the run, the short window at
        most a tenth, so a 10 s smoke run still exercises both."""
        long_ns = max(1, min(self.long_window_ns, duration_ns // 3))
        short_ns = max(1, min(self.short_window_ns, duration_ns // 10, long_ns))
        return BurnRateConfig(
            short_window_ns=short_ns,
            long_window_ns=long_ns,
            threshold=self.threshold,
            resolve_threshold=self.resolve_threshold,
        )


@dataclass(frozen=True)
class SloTarget:
    """What the monitor needs to know about one QoS level's SLO."""

    qos: int
    #: Error budget: the fraction of RPCs allowed to miss (e.g. 0.01
    #: for a p99 SLO).
    allowed_miss_rate: float

    def __post_init__(self) -> None:
        if not 0.0 < self.allowed_miss_rate < 1.0:
            raise ValueError("allowed miss rate must be in (0, 1)")


@dataclass(frozen=True)
class Alert:
    """One burn-rate state transition for one QoS level."""

    time_ns: int
    qos: int
    state: str  # "firing" | "resolved"
    burn_short: float
    burn_long: float
    miss_rate_short: float
    miss_rate_long: float
    allowed_miss_rate: float
    short_window_ns: int
    long_window_ns: int

    def as_record(self) -> Dict[str, object]:
        """The structured ``alert`` record shape for JSONL event logs."""
        return {
            "type": "alert",
            "time_ns": self.time_ns,
            "qos": self.qos,
            "state": self.state,
            "burn_short": self.burn_short,
            "burn_long": self.burn_long,
            "miss_rate_short": self.miss_rate_short,
            "miss_rate_long": self.miss_rate_long,
            "allowed_miss_rate": self.allowed_miss_rate,
            "short_window_ns": self.short_window_ns,
            "long_window_ns": self.long_window_ns,
        }


#: Cumulative (tracked, missed) totals at one instant.
_Totals = Tuple[float, float]


class SloMonitor:
    """Streaming multiwindow burn-rate detector over snapshots.

    Feed :meth:`observe` each ``(time_ns, snapshot)`` as it is sampled
    (or, post-mortem, as a recorded series is read back).  Every state
    transition is returned *and* retained on :attr:`alerts`.
    """

    def __init__(
        self,
        targets: Sequence[SloTarget],
        config: BurnRateConfig = BurnRateConfig(),
    ) -> None:
        if not targets:
            raise ValueError("need at least one SLO target")
        self._targets = {t.qos: t for t in targets}
        self._config = config
        #: Per-QoS history of (time_ns, (tracked, missed)) samples,
        #: pruned to the long window.
        self._history: Dict[int, List[Tuple[int, _Totals]]] = {
            qos: [] for qos in self._targets
        }
        self._firing: Dict[int, bool] = {qos: False for qos in self._targets}
        self.alerts: List[Alert] = []

    @classmethod
    def from_slo_map(
        cls,
        slo_map: SLOMap,
        config: BurnRateConfig = BurnRateConfig(),
    ) -> "SloMonitor":
        targets = [
            SloTarget(
                qos=level,
                allowed_miss_rate=max(
                    1e-6, 1.0 - slo_map.get(level).target_percentile / 100.0
                ),
            )
            for level in slo_map.levels()
        ]
        return cls(targets, config)

    def firing(self, qos: int) -> bool:
        """Whether the level is currently in the firing state."""
        return self._firing.get(qos, False)

    # ------------------------------------------------------------------
    # totals extraction
    # ------------------------------------------------------------------
    def _totals(self, snapshot: Snapshot, target: SloTarget) -> _Totals:
        tracked = snapshot.get(f"slo_tracked{{qos={target.qos}}}")
        missed = snapshot.get(f"slo_miss{{qos={target.qos}}}")
        if isinstance(tracked, (int, float)) and isinstance(
            missed, (int, float)
        ):
            return float(tracked), float(missed)
        return 0.0, 0.0

    def _window_rate(
        self, history: Sequence[Tuple[int, _Totals]], window_ns: int
    ) -> float:
        """Miss rate over the trailing window, 0.0 with no new data."""
        t_now, (tracked_now, missed_now) = history[-1]
        start = t_now - window_ns
        # The youngest sample at or before the window start anchors the
        # delta; with none, the window covers the whole history.
        anchor = history[0]
        for sample in history:
            if sample[0] <= start:
                anchor = sample
            else:
                break
        tracked_then, missed_then = anchor[1]
        d_tracked = tracked_now - tracked_then
        d_missed = missed_now - missed_then
        if d_tracked <= 0:
            return 0.0
        return max(0.0, d_missed) / d_tracked

    # ------------------------------------------------------------------
    # the online interface: one snapshot at a time
    # ------------------------------------------------------------------
    def observe(self, time_ns: int, snapshot: Snapshot) -> List[Alert]:
        """Ingest one snapshot; returns any state-transition alerts."""
        emitted: List[Alert] = []
        for qos, target in sorted(self._targets.items()):
            history = self._history[qos]
            history.append((time_ns, self._totals(snapshot, target)))
            # Keep one sample older than the long window as the anchor.
            horizon = time_ns - self._config.long_window_ns
            while len(history) > 2 and history[1][0] <= horizon:
                history.pop(0)
            rate_short = self._window_rate(
                history, self._config.short_window_ns
            )
            rate_long = self._window_rate(history, self._config.long_window_ns)
            burn_short = rate_short / target.allowed_miss_rate
            burn_long = rate_long / target.allowed_miss_rate
            was_firing = self._firing[qos]
            now_firing = was_firing
            if (
                burn_short >= self._config.threshold
                and burn_long >= self._config.threshold
            ):
                now_firing = True
            elif (
                burn_short < self._config.resolve_threshold
                and burn_long < self._config.resolve_threshold
            ):
                now_firing = False
            if now_firing != was_firing:
                self._firing[qos] = now_firing
                alert = Alert(
                    time_ns=time_ns,
                    qos=qos,
                    state="firing" if now_firing else "resolved",
                    burn_short=burn_short,
                    burn_long=burn_long,
                    miss_rate_short=rate_short,
                    miss_rate_long=rate_long,
                    allowed_miss_rate=target.allowed_miss_rate,
                    short_window_ns=self._config.short_window_ns,
                    long_window_ns=self._config.long_window_ns,
                )
                self.alerts.append(alert)
                emitted.append(alert)
        return emitted


__all__ = [
    "Alert",
    "BurnRateConfig",
    "Snapshot",
    "SloMonitor",
    "SloTarget",
]

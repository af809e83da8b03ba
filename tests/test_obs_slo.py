"""Multiwindow SLO burn-rate detection over metrics snapshots.

The monitor reads the live client's exact verdict counters, is
stateful (fire/resolve hysteresis), and window-scaled for short runs; each of those properties is pinned here with hand-built
snapshot streams where the expected burn multiples are arithmetic.
"""

import pytest

from repro.core.qos import QoSConfig, WEIGHTS_2_QOS
from repro.core.slo import SLO, SLOMap
from repro.obs.slo import (
    BurnRateConfig,
    SloMonitor,
    SloTarget,
)

S = 1_000_000_000

#: 1 s short / 4 s long windows, firing at 2x the allowed miss rate.
CONFIG = BurnRateConfig(
    short_window_ns=1 * S, long_window_ns=4 * S, threshold=2.0
)


def counter_snapshot(tracked, missed, qos=0):
    return {f"slo_tracked{{qos={qos}}}": tracked, f"slo_miss{{qos={qos}}}": missed}


def monitor(allowed=0.1, config=CONFIG):
    return SloMonitor([SloTarget(qos=0, allowed_miss_rate=allowed)], config)


class TestCounterSource:
    def test_sustained_burn_fires_then_resolves(self):
        mon = monitor()
        alerts = []
        # 0-5 s: every tracked RPC misses (burn 10x); 5-15 s: none miss.
        for t in range(16):
            missed = min(t, 5) * 10
            alerts += mon.observe(t * S, counter_snapshot(t * 10, missed))
        states = [(a.time_ns // S, a.state) for a in alerts]
        assert states[0][1] == "firing"
        assert states[-1][1] == "resolved"
        assert len(states) == 2  # one transition each way, no flapping
        assert not mon.firing(0)
        fire = alerts[0]
        assert fire.burn_short == pytest.approx(10.0)
        assert fire.burn_long == pytest.approx(10.0)

    def test_short_blip_does_not_fire(self):
        """One bad second inside a healthy long window: the long window
        (the blip rejector) stays under threshold, so no alert."""
        mon = monitor()
        tracked = missed = 0
        alerts = []
        for t in range(12):
            tracked += 100
            # 5 misses/s is half the 10%-of-100 budget; the 60-miss blip
            # at t=6 sends the short window to 6x but leaves the long
            # window (75 misses / 400 tracked = 1.875x) under threshold.
            missed += 60 if t == 6 else 5
            alerts += mon.observe(t * S, counter_snapshot(tracked, missed))
        assert alerts == []

    def test_no_new_data_means_zero_burn(self):
        mon = monitor()
        for t in range(8):
            mon.observe(t * S, counter_snapshot(100, 100))  # totals frozen
        assert mon.alerts == []

    def test_history_pruned_to_long_window(self):
        mon = monitor()
        for t in range(50):
            mon.observe(t * S, counter_snapshot(t, 0))
        history = mon._history[0]
        # One anchor older than the long window, nothing older than that.
        assert history[0][0] <= (49 - 4) * S < history[1][0]
        assert len(history) <= 7


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BurnRateConfig(short_window_ns=0)
        with pytest.raises(ValueError):
            BurnRateConfig(short_window_ns=10 * S, long_window_ns=5 * S)
        with pytest.raises(ValueError):
            BurnRateConfig(threshold=0.0)
        with pytest.raises(ValueError):
            BurnRateConfig(threshold=2.0, resolve_threshold=3.0)
        with pytest.raises(ValueError):
            SloTarget(qos=0, allowed_miss_rate=0.0)
        with pytest.raises(ValueError):
            SloMonitor([], CONFIG)

    def test_scaled_to_clips_windows_for_short_runs(self):
        scaled = BurnRateConfig().scaled_to(10 * S)
        assert scaled.long_window_ns == 10 * S // 3
        assert scaled.short_window_ns == 1 * S
        assert scaled.threshold == BurnRateConfig().threshold
        # Long horizons keep the defaults.
        assert BurnRateConfig().scaled_to(600 * S) == BurnRateConfig()

    def test_from_slo_map_derives_budget_and_target(self):
        slo_map = SLOMap(
            {0: SLO(25_000_000, 90.0)}, QoSConfig(weights=WEIGHTS_2_QOS)
        )
        mon = SloMonitor.from_slo_map(slo_map, CONFIG)
        target = mon._targets[0]
        assert target.allowed_miss_rate == pytest.approx(0.1)

"""QJump baseline (Grosvenor et al., NSDI 2015).

QJump gives each QoS level a *throttle factor*: level 0 (latency
guaranteed) is rate-limited at every host to its worst-case fair share
of the bottleneck — with n hosts sharing a link, at most rate/n each —
so its packets can "jump" queues with bounded delay; lower levels get
progressively weaker throttles and weaker guarantees, and the lowest is
unthrottled bulk traffic.  Switches use strict priority.

QJump provides excellent *packet-level* latency for the throttled
level, but the throttle caps throughput: RPCs at QoS_h queue at the
host when their offered load exceeds the throttle, inflating RNL —
exactly the gap between packet SLOs and RPC SLOs that Section 6.10
discusses.
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.net.node import Host
from repro.net.packet import HEADER_BYTES
from repro.net.queues import StrictPriorityScheduler
from repro.net.topology import SchedulerFactory
from repro.sim.engine import Simulator
from repro.transport.base import FixedWindowCC
from repro.transport.reliable import Flow, TransportConfig, TransportEndpoint


class TokenBucket:
    """Byte token bucket: refills continuously at ``rate_bps``."""

    def __init__(self, rate_bps: float, burst_bytes: int, now_ns: int = 0):
        if rate_bps <= 0 or burst_bytes <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate_bps = rate_bps
        self.burst_bytes = float(burst_bytes)
        self._tokens = float(burst_bytes)
        self._last_ns = now_ns

    def _refill(self, now_ns: int) -> None:
        elapsed = now_ns - self._last_ns
        if elapsed > 0:
            self._tokens = min(
                self.burst_bytes, self._tokens + elapsed * self.rate_bps / 8e9
            )
            self._last_ns = now_ns

    def consume_or_wait_ns(self, size_bytes: int, now_ns: int) -> int:
        """Consume tokens if available (returns 0), else time until ready."""
        self._refill(now_ns)
        if self._tokens >= size_bytes:
            self._tokens -= size_bytes
            return 0
        deficit = size_bytes - self._tokens
        return max(1, int(deficit * 8e9 / self.rate_bps))


class QJumpFlow(Flow):
    """Flow whose sends are gated by the host-wide per-level bucket."""

    def _extra_gate_ns(self) -> int:
        endpoint: "QJumpEndpoint" = self.endpoint  # type: ignore[assignment]
        bucket = endpoint.buckets.get(self.qos)
        if bucket is None:
            return 0
        msg = self._pending[0]
        size = msg.packet_payload(msg.next_seq) + HEADER_BYTES
        return bucket.consume_or_wait_ns(size, self.sim.now)


class QJumpEndpoint(TransportEndpoint):
    """Transport endpoint enforcing QJump's per-level host throttles.

    ``level_rates_bps`` maps QoS level -> host-wide rate cap; levels
    absent from the map are unthrottled (the bulk class).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        level_rates_bps: Dict[int, float],
        config: TransportConfig = TransportConfig(),
        burst_packets: int = 2,
    ):
        super().__init__(sim, host, config)
        burst = burst_packets * (4096 + HEADER_BYTES)
        self.buckets = {
            level: TokenBucket(rate, burst, now_ns=sim.now)
            for level, rate in level_rates_bps.items()
        }

    def _make_flow(self, dst: int, qos: int) -> Flow:
        return QJumpFlow(self.sim, self, dst, qos, self.config)


def qjump_level_rates(
    line_rate_bps: float,
    num_hosts: int,
    throttle_factors: Sequence[float] = None,
) -> Dict[int, float]:
    """Per-level host rate caps.

    Level i gets ``f_i * line_rate / num_hosts``; f=1 is the fully
    guaranteed level (worst-case fair share), larger factors trade
    guarantee strength for throughput.  Levels beyond the factors list
    (the bulk class) are unthrottled.

    The default factors give the latency level half the line rate and
    the middle level three quarters — the kind of operator compromise
    QJump deployments make when the guaranteed level must carry real
    RPC load rather than only tiny control messages.
    """
    if num_hosts < 2:
        raise ValueError("QJump throttles assume more than one host")
    if throttle_factors is None:
        throttle_factors = (num_hosts / 2.0, 3.0 * num_hosts / 4.0)
    return {
        level: factor * line_rate_bps / num_hosts
        for level, factor in enumerate(throttle_factors)
    }


def qjump_scheduler_factory(
    num_classes: int = 3, buffer_bytes: int = 4 * 1024 * 1024
) -> SchedulerFactory:
    """QJump switches use strict priority across levels."""
    return lambda: StrictPriorityScheduler(num_classes, buffer_bytes)


def qjump_transport_config(ack_bypass: bool = False) -> TransportConfig:
    """QJump relies on its throttles, not CC: fixed moderate window."""
    return TransportConfig(
        cc_factory=lambda: FixedWindowCC(16.0), ack_bypass=ack_bypass
    )

"""Swift-style delay-based congestion control (Kumar et al., SIGCOMM 2020).

The paper's simulator uses Swift as the underlying transport CC; Aequitas
"relies on a well-functioning congestion control algorithm ... to keep
switch buffer occupancy small".  We implement the core of Swift:

* every ACK carries an RTT sample; the flow compares it to a *target
  delay*;
* below target: additive increase (``ai / cwnd`` per acked packet, i.e.
  +ai per RTT);
* above target: multiplicative decrease proportional to how far the
  delay overshoots, clamped by ``max_mdf``, at most once per RTT;
* the window may fall below one packet, in which case the flow paces
  packets with an inter-packet gap of ``rtt / cwnd``.

We omit Swift's topology-scaled target and flow-scaling terms: with the
fixed two-hop fabric of our experiments a constant target is faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.transport.base import CongestionControl


@dataclass(frozen=True)
class SwiftParams:
    """Swift tunables (defaults follow the published constants)."""

    target_delay_ns: int = 25_000
    additive_increase: float = 1.0
    beta: float = 0.8  # multiplicative-decrease scaling on overshoot
    max_mdf: float = 0.5  # max fractional decrease per RTT
    min_cwnd: float = 0.01
    max_cwnd: float = 256.0

    def __post_init__(self) -> None:
        if self.target_delay_ns <= 0:
            raise ValueError("target delay must be positive")
        if not 0 < self.max_mdf < 1:
            raise ValueError("max_mdf must be in (0, 1)")
        if self.min_cwnd <= 0 or self.max_cwnd < 1:
            raise ValueError("invalid cwnd bounds")


class SwiftCC(CongestionControl):
    """Per-flow Swift congestion window."""

    def __init__(
        self, params: SwiftParams = SwiftParams(), initial_cwnd: float = 8.0
    ) -> None:
        self.params = params
        self.cwnd = min(max(initial_cwnd, params.min_cwnd), params.max_cwnd)
        self._last_decrease_ns = -(10**18)
        self._last_rtt_ns = params.target_delay_ns
        self.acks = 0
        self.decreases = 0

    def on_ack(self, rtt_ns: int, now_ns: int, acked_packets: int = 1) -> None:
        p = self.params
        self._last_rtt_ns = rtt_ns
        self.acks += acked_packets
        cwnd = self.cwnd
        if rtt_ns < p.target_delay_ns:
            if cwnd >= 1.0:
                cwnd += p.additive_increase * acked_packets / cwnd
            else:
                cwnd += p.additive_increase * acked_packets
        else:
            # Decrease at most once per RTT, scaled by overshoot.
            if now_ns - self._last_decrease_ns >= rtt_ns:
                overshoot = (rtt_ns - p.target_delay_ns) / rtt_ns
                cwnd *= max(1.0 - p.beta * overshoot, 1.0 - p.max_mdf)
                self._last_decrease_ns = now_ns
                self.decreases += 1
        if cwnd < p.min_cwnd:
            cwnd = p.min_cwnd
        if cwnd > p.max_cwnd:
            cwnd = p.max_cwnd
        self.cwnd = cwnd

    def on_loss(self, now_ns: int) -> None:
        """Retransmission timeout: halve the window (once per RTT)."""
        if now_ns - self._last_decrease_ns >= self._last_rtt_ns:
            self.cwnd = max(self.cwnd * (1.0 - self.params.max_mdf), self.params.min_cwnd)
            self._last_decrease_ns = now_ns
            self.decreases += 1

    def pacing_gap_ns(self, base_rtt_ns: int) -> int:
        if self.cwnd >= 1.0:
            return 0
        rtt = max(self._last_rtt_ns, base_rtt_ns)
        return int(rtt / max(self.cwnd, self.params.min_cwnd))

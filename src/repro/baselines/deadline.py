"""Shared machinery for the deadline-driven baselines D3 and PDQ.

Both schemes give each message (their "flow") an explicit rate set by
the network and terminate messages that cannot meet their deadline —
"better never than late".  The real systems carry rate requests /
grants in packet headers hop by hop; we idealize that control plane as
a :class:`PortArbiter` attached to each destination's bottleneck link
that recomputes rate allocations on every flow arrival, completion, and
termination.  This gives D3/PDQ their *best-case* behavior (zero
control latency), which is conservative for the Aequitas comparison:
the baselines can only be worse with a real control plane.

D3 allocation (Wilson et al., SIGCOMM 2011): greedy FCFS — each
deadline flow requests remaining_size / time_to_deadline; requests are
granted until capacity runs out; leftover capacity is split equally
among all flows (work conservation).  Flows whose deadline passes are
quenched.

PDQ allocation (Hong et al., SIGCOMM 2012): preemptive EDF — flows are
sorted by deadline; the earliest-deadline flow sends at full line rate
while later flows pause; any flow whose projected completion (behind
the flows ahead of it) exceeds its deadline is terminated immediately.
Early termination is what drags utilization toward ~50% in Fig 22.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.net.node import Host
from repro.net.packet import HEADER_BYTES
from repro.sim.engine import Simulator
from repro.transport.base import FixedWindowCC, Message
from repro.transport.reliable import Flow, TransportConfig, TransportEndpoint


class RateControlledFlow(Flow):
    """A flow paced at an externally granted rate.

    ``rate_bps`` is set by the arbiter: None means unlimited, 0 means
    paused (the flow re-checks periodically and is kicked on updates).
    """

    # Paused flows sit idle until the arbiter raises their rate (the
    # set_rate kick); the recheck below is only a safety net.
    PAUSE_RECHECK_NS = 1_000_000

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rate_bps: Optional[float] = None
        self._rate_next_ns = 0

    def set_rate(self, rate_bps: Optional[float]) -> None:
        if rate_bps == self.rate_bps:
            return  # unchanged: avoid a useless send-path wakeup
        self.rate_bps = rate_bps
        self._kick()

    def _extra_gate_ns(self) -> int:
        if self.rate_bps is None:
            return 0
        if self.rate_bps <= 0:
            return self.PAUSE_RECHECK_NS
        now = self.sim.now
        if now < self._rate_next_ns:
            return self._rate_next_ns - now
        msg = self._pending[0]
        size = msg.packet_payload(msg.next_seq) + HEADER_BYTES
        self._rate_next_ns = max(now, self._rate_next_ns) + int(
            size * 8e9 / self.rate_bps
        )
        return 0


@dataclass
class _FlowRecord:
    msg: Message
    flow: RateControlledFlow
    registered_ns: int


class PortArbiter:
    """Idealized per-bottleneck rate allocator for D3 ('d3') / PDQ ('pdq')."""

    def __init__(
        self,
        sim: Simulator,
        capacity_bps: float,
        mode: str,
        headroom: float = 0.95,
    ):
        if mode not in ("d3", "pdq"):
            raise ValueError("mode must be 'd3' or 'pdq'")
        if capacity_bps <= 0 or not 0 < headroom <= 1:
            raise ValueError("invalid capacity or headroom")
        self.sim = sim
        self.capacity_bps = capacity_bps * headroom
        self.mode = mode
        self.flows: Dict[int, _FlowRecord] = {}
        self.terminated_count = 0
        self._in_recompute = False
        # Allocation runs are coalesced: at most one per this interval
        # (models the one-RTT control latency the real hop-by-hop
        # header protocol has, and keeps the allocator O(n) per
        # interval instead of O(n) per packet event under overload).
        self.min_recompute_gap_ns = 20_000
        self._last_recompute_ns = -(10**18)
        self._recompute_scheduled = False

    # ------------------------------------------------------------------
    def register(self, msg: Message, flow: RateControlledFlow) -> None:
        """Admit a new message into the allocation (and arm its deadline)."""
        self.flows[msg.msg_id] = _FlowRecord(msg, flow, self.sim.now)
        if msg.deadline_ns is not None:
            self.sim.post(
                msg.deadline_ns - self.sim.now, self._deadline_check, msg.msg_id
            )
        self.recompute()

    def deregister(self, msg_id: int) -> None:
        """Remove a completed message and reallocate the freed rate."""
        if self.flows.pop(msg_id, None) is not None:
            if self.mode == "pdq":
                # A completion frees the link NOW; coalescing here would
                # idle the port (fatal for PDQ, which serializes flows).
                self._last_recompute_ns = -(10**18)
            self.recompute()

    def _deadline_check(self, msg_id: int) -> None:
        rec = self.flows.get(msg_id)
        if rec is None:
            return
        self._terminate(rec)
        self.recompute()

    def _terminate(self, rec: _FlowRecord) -> None:
        self.flows.pop(rec.msg.msg_id, None)
        self.terminated_count += 1
        rec.flow.cancel_message(rec.msg.msg_id)

    # ------------------------------------------------------------------
    def recompute(self) -> None:
        """Re-run the allocation (coalesced; see min_recompute_gap_ns)."""
        if self._in_recompute:
            return
        now = self.sim.now
        if now - self._last_recompute_ns < self.min_recompute_gap_ns:
            if not self._recompute_scheduled:
                self._recompute_scheduled = True
                delay = self._last_recompute_ns + self.min_recompute_gap_ns - now
                self.sim.post(max(1, delay), self._deferred_recompute)
            return
        self._last_recompute_ns = now
        self._in_recompute = True
        try:
            while True:
                doomed = self._allocate()
                if not doomed:
                    break
                for rec in doomed:
                    self._terminate(rec)
        finally:
            self._in_recompute = False

    def _deferred_recompute(self) -> None:
        self._recompute_scheduled = False
        self.recompute()

    def _allocate(self) -> List[_FlowRecord]:
        if self.mode == "d3":
            return self._allocate_d3()
        return self._allocate_pdq()

    def _remaining_bits(self, rec: _FlowRecord) -> float:
        rem = rec.flow.remaining_payload_bytes(rec.msg.msg_id)
        if rem == 0 and rec.msg.completed_ns is None:
            # Registered ahead of the flow seeing the message (so the
            # arbiter's first allocation paces it from byte zero).
            rem = rec.msg.payload_bytes
        return max(rem, 1) * 8.0

    def _allocate_d3(self) -> List[_FlowRecord]:
        now = self.sim.now
        records = sorted(self.flows.values(), key=lambda r: r.registered_ns)
        left = self.capacity_bps
        base: Dict[int, float] = {}
        doomed: List[_FlowRecord] = []
        for rec in records:
            deadline = rec.msg.deadline_ns
            if deadline is None:
                base[rec.msg.msg_id] = 0.0
                continue
            time_left_ns = deadline - now
            if time_left_ns <= 0:
                doomed.append(rec)
                continue
            demand = self._remaining_bits(rec) * 1e9 / time_left_ns
            granted = min(demand, left)
            base[rec.msg.msg_id] = granted
            left -= granted
        if doomed:
            return doomed
        alive = [rec for rec in records if rec.msg.msg_id in base]
        bonus = left / len(alive) if alive else 0.0
        # Quantize grants so minor demand drift between allocations does
        # not wake every flow's send path (real D3 grants are quantized
        # by header field width anyway).
        step = self.capacity_bps / 256.0
        for rec in alive:
            rate = base[rec.msg.msg_id] + bonus
            rec.flow.set_rate(max(step, round(rate / step) * step))
        return []

    def _allocate_pdq(self) -> List[_FlowRecord]:
        now = self.sim.now
        far_future = 1 << 62
        records = sorted(
            self.flows.values(),
            key=lambda r: (
                r.msg.deadline_ns if r.msg.deadline_ns is not None else far_future,
                r.registered_ns,
            ),
        )
        doomed: List[_FlowRecord] = []
        t_cum_ns = 0.0
        first = True
        for rec in records:
            duration_ns = self._remaining_bits(rec) * 1e9 / self.capacity_bps
            deadline = rec.msg.deadline_ns
            if deadline is not None and now + t_cum_ns + duration_ns > deadline:
                doomed.append(rec)
                continue
            rec.flow.set_rate(self.capacity_bps if first else 0.0)
            first = False
            t_cum_ns += duration_ns
        return doomed


class DeadlineEndpoint(TransportEndpoint):
    """Transport endpoint for D3/PDQ: one rate-controlled flow per message.

    Messages register with the arbiter of their destination's bottleneck
    link; each message gets its own flow so per-message rates and
    terminations are independent (D3/PDQ's "flow" == our message).
    """

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        arbiters: Dict[int, PortArbiter],
        config: Optional[TransportConfig] = None,
    ):
        if config is None:
            config = TransportConfig(cc_factory=lambda: FixedWindowCC(64.0))
        super().__init__(sim, host, config)
        self.arbiters = arbiters
        self.on_message_complete = self._on_deadline_complete
        self._flow_of_msg: Dict[int, RateControlledFlow] = {}

    def _make_flow(self, dst: int, qos: int) -> RateControlledFlow:
        return RateControlledFlow(self.sim, self, dst, qos, self.config)

    def send_message(self, msg: Message) -> None:
        """One rate-controlled flow per message, arbitrated at the dst."""
        flow = self._make_flow(msg.dst, msg.qos)
        self._flows_by_id[flow.flow_id] = flow
        self._flow_of_msg[msg.msg_id] = flow
        arbiter = self.arbiters.get(msg.dst)
        if arbiter is not None:
            # Pause the flow before it sees the message (an unpaced flow
            # would blast the whole message ahead of the arbiter's
            # decision), hand the message over, then register so the
            # arbiter's recompute assigns the real rate — or terminates
            # a hopeless message, which requires the flow to know it.
            flow.rate_bps = 0.0
        flow.send_message(msg)
        if arbiter is not None:
            arbiter.register(msg, flow)

    def _on_deadline_complete(self, msg: Message) -> None:
        arbiter = self.arbiters.get(msg.dst)
        if arbiter is not None:
            arbiter.deregister(msg.msg_id)
        flow = self._flow_of_msg.pop(msg.msg_id, None)
        if flow is not None and flow.inflight == 0:
            self._flows_by_id.pop(flow.flow_id, None)

"""Homa baseline (Montazeri et al., SIGCOMM 2018), simplified.

Homa is receiver-driven: a sender blindly transmits the first
bandwidth-delay product of each message ("unscheduled" packets) and the
receiver paces the rest with per-packet GRANTs, always granting the
active message with the smallest remaining size (SRPT).  Packets carry
dynamic in-network priorities derived from remaining size, served by
strict-priority switch queues.

Simplifications (documented per DESIGN.md):

* one grant == one packet, no overcommitment to multiple senders;
* eight static priority buckets over remaining-MTUs instead of Homa's
  adaptive cutoffs;
* no lost-grant recovery beyond the transport's RTO.

These retain the properties the Fig-22 comparison exercises: SRPT-like
favoritism toward small RPCs, receiver-side scheduling, and priority
queues — and the corresponding starvation of large RPCs under
overload, which is what costs Homa SLO compliance for large PC RPCs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.net.node import Host
from repro.net.packet import CONTROL_BYTES, MTU_BYTES, Packet, PacketKind
from repro.net.queues import StrictPriorityScheduler
from repro.net.topology import SchedulerFactory
from repro.sim.engine import Simulator
from repro.transport.base import FixedWindowCC, Message
from repro.transport.reliable import Flow, TransportConfig, TransportEndpoint

#: Number of strict-priority levels Homa uses in switches.
HOMA_PRIORITY_LEVELS = 8

#: Unscheduled window: about one BDP at 100 Gbps / ~4 us RTT.
DEFAULT_UNSCHEDULED_MTUS = 12

#: Remaining-size cutoffs (in MTUs) for the 8 priority buckets;
#: smaller remaining => higher priority (lower level number).
_PRIORITY_CUTOFFS = (1, 2, 4, 8, 16, 32, 64)


def homa_priority(remaining_mtus: int) -> int:
    """Map remaining message size to a strict-priority level."""
    for level, cutoff in enumerate(_PRIORITY_CUTOFFS):
        if remaining_mtus <= cutoff:
            return level
    return HOMA_PRIORITY_LEVELS - 1


class HomaFlow(Flow):
    """Sender side: unscheduled burst, then grant-driven transmission."""

    def send_message(self, msg: Message) -> None:
        """Blast the unscheduled window; queue the rest for grants."""
        msg.t0_ns = self.sim.now
        self._messages[msg.msg_id] = msg
        endpoint: "HomaEndpoint" = self.endpoint  # type: ignore[assignment]
        # The rest go one per GRANT, sequenced by the receiver's _inbound.
        for seq in range(min(msg.size_mtus, endpoint.unscheduled_mtus)):
            self._transmit(msg, seq, retransmit=False)

    def on_grant(self, msg_id: int, seq: int) -> None:
        """Transmit the granted packet of one in-progress message."""
        msg = self._messages.get(msg_id)
        if msg is None or seq >= msg.size_mtus:
            return
        self._transmit(msg, seq, retransmit=False)

    def _packet_qos(self, msg: Message, remaining_mtus: int) -> int:
        return homa_priority(remaining_mtus)


class HomaEndpoint(TransportEndpoint):
    """Receiver side: SRPT grant scheduler; sender side: grant dispatch."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        config: Optional[TransportConfig] = None,
        unscheduled_mtus: int = DEFAULT_UNSCHEDULED_MTUS,
        line_rate_bps: float = 100e9,
    ):
        if config is None:
            config = TransportConfig(cc_factory=lambda: FixedWindowCC(1e9))
        super().__init__(sim, host, config)
        self.unscheduled_mtus = unscheduled_mtus
        self.grant_interval_ns = max(1, int(MTU_BYTES * 8e9 / line_rate_bps))
        # (src, msg_id) -> [total_mtus, next_seq_to_grant, flow_id]
        self._inbound: Dict[Tuple[int, int], list] = {}
        # Messages already fully granted: arrivals of their scheduled
        # packets must not re-register them for granting.
        self._fully_granted: set = set()
        self._grant_timer_armed = False
        self.grants_sent = 0

    def _make_flow(self, dst: int, qos: int) -> Flow:
        return HomaFlow(self.sim, self, dst, qos, self.config)

    # -- receiver ------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        """Receiver side: track inbound messages for SRPT granting."""
        if pkt.kind == PacketKind.DATA:
            self._track_inbound(pkt)
        super().receive(pkt)

    def _track_inbound(self, pkt: Packet) -> None:
        total = pkt.seq + pkt.remaining_mtus
        if total <= self.unscheduled_mtus:
            return  # fully unscheduled message: nothing to grant
        key = (pkt.src, pkt.msg_id)
        if key in self._fully_granted or key in self._inbound:
            return
        self._inbound[key] = [total, self.unscheduled_mtus, pkt.flow_id]
        self._arm_grant_timer()

    def _arm_grant_timer(self) -> None:
        if self._grant_timer_armed or not self._inbound:
            return
        self._grant_timer_armed = True
        self.sim.post(self.grant_interval_ns, self._grant_tick)

    def _grant_tick(self) -> None:
        self._grant_timer_armed = False
        if not self._inbound:
            return
        # SRPT: grant the message with the least remaining ungranted data.
        key = min(self._inbound, key=lambda k: self._inbound[k][0] - self._inbound[k][1])
        total, next_seq, flow_id = self._inbound[key]
        src, msg_id = key
        grant = Packet(
            src=self.host.host_id,
            dst=src,
            size_bytes=CONTROL_BYTES,
            qos=0,
            flow_id=flow_id,
            seq=next_seq,
            kind=PacketKind.GRANT,
            msg_id=msg_id,
        )
        self.host.send(grant)
        self.grants_sent += 1
        if next_seq + 1 >= total:
            del self._inbound[key]
            self._fully_granted.add(key)
        else:
            self._inbound[key][1] = next_seq + 1
        self._arm_grant_timer()

    # -- sender --------------------------------------------------------
    def handle_control(self, pkt: Packet) -> None:
        """Sender side: dispatch GRANTs to the owning Homa flow."""
        if pkt.kind == PacketKind.GRANT:
            flow = self._flows_by_id.get(pkt.flow_id)
            if isinstance(flow, HomaFlow):
                flow.on_grant(pkt.msg_id, pkt.seq)


def homa_scheduler_factory(
    buffer_bytes: int = 4 * 1024 * 1024,
) -> SchedulerFactory:
    """Strict priority with Homa's 8 levels."""
    return lambda: StrictPriorityScheduler(HOMA_PRIORITY_LEVELS, buffer_bytes)

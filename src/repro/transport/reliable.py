"""Reliable message transport with pluggable congestion control.

One :class:`TransportEndpoint` lives on each host.  It multiplexes
messages onto per-(destination, QoS) :class:`Flow` objects — mirroring
the paper's prototype where an RPC channel "is mapped to multiple
per-QoS TCP sockets".  Each flow:

* segments messages into MTU-sized packets, FIFO within the flow;
* keeps at most ``cwnd`` packets outstanding (window from the CC
  module, Swift by default), pacing sub-packet windows;
* retransmits on timeout, feeding loss signals back into CC;
* acknowledges every data packet; the ACK for a message's last
  outstanding packet completes the message.

RNL (the paper's measurement, Appendix A) falls out naturally:
``Message.t0_ns`` is stamped when the message is handed to the
transport, ``Message.completed_ns`` when its last packet is ACKed,
and ``Message.rnl_ns`` is stored as their difference —
so sender-side queueing behind congestion-control backoff is included,
which is the effect that makes packet-level metrics insufficient for
RPC SLOs (Section 2.2.1).
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Tuple

from repro.net.node import Host
from repro.net.packet import CONTROL_BYTES, HEADER_BYTES, Packet, PacketKind
from repro.obs.runtime import active_tracer
from repro.sim.engine import Simulator
from repro.transport.base import CongestionControl, Message
from repro.transport.swift import SwiftCC

_DATA = PacketKind.DATA
_ACK = PacketKind.ACK

#: Factory producing a fresh CC instance per flow.
CCFactory = Callable[[], CongestionControl]


@dataclass(frozen=True)
class TransportConfig:
    """Endpoint-wide transport settings.

    Attributes:
        cc_factory: builds the per-flow congestion controller.
        base_rtt_ns: unloaded fabric RTT (pacing/RTO baseline).
        rto_ns: retransmission timeout.
        ack_qos: QoS level ACKs ride on (highest by default — ACKs are
            tiny and latency-critical).
        ack_bypass: when True, ACKs are delivered by a scheduled callback
            ``base_rtt_ns // 2`` after the data packet arrives instead of
            traversing the reverse network path.  Halves the event count
            for large experiments; the forward data path is simulated
            identically.
        max_burst: cap on back-to-back sends in one kick (keeps single
            events short).
    """

    cc_factory: CCFactory = SwiftCC
    base_rtt_ns: int = 4_000
    rto_ns: int = 200_000
    ack_qos: int = 0
    ack_bypass: bool = False
    max_burst: int = 64

    def __post_init__(self) -> None:
        if self.base_rtt_ns <= 0 or self.rto_ns <= 0:
            raise ValueError("RTT and RTO must be positive")


class Flow:
    """One (src, dst, qos) reliable stream."""

    _flow_ids = itertools.count(1)

    def __init__(
        self,
        sim: Simulator,
        endpoint: "TransportEndpoint",
        dst: int,
        qos: int,
        config: TransportConfig,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.src = endpoint.host.host_id
        self.dst = dst
        self.qos = qos
        self.config = config
        self.flow_id = next(Flow._flow_ids)
        self.cc: CongestionControl = config.cc_factory()
        # Resolved once at construction (zero-overhead-off): every hook
        # site below is a single ``is not None`` test when tracing is
        # off, and all hooks are read-only w.r.t. simulation state.
        self._tracer = active_tracer()
        self._flow_label = f"{self.src}->{dst}/qos{qos}"
        # Send/ACK progress lives on the Message (next_seq, unacked_bytes);
        # the in-flight record of a packet is the Packet itself, keyed
        # (msg_id, seq) — a retransmission replaces it in place.
        self._pending: Deque[Message] = deque()
        self._messages: Dict[int, Message] = {}
        self._outstanding: Dict[Tuple[int, int], Packet] = {}
        nic = endpoint.host.nic
        if nic is None:
            raise RuntimeError(f"{endpoint.host.name} has no NIC attached")
        self._nic_send = nic.send
        # The subclass hooks cost a call per packet; decide once whether
        # this flow's class overrides them at all.
        self._gated = type(self)._extra_gate_ns is not Flow._extra_gate_ns
        self._dynamic_qos = type(self)._packet_qos is not Flow._packet_qos
        self._next_allowed_send_ns = 0
        self._timer_armed = False
        self._kick_scheduled = False
        # Stats
        self.acked_payload_bytes = 0
        self.retransmitted_packets = 0
        self.sent_packets = 0

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send_message(self, msg: Message) -> None:
        """Accept a message; stamps t0 (start of RNL)."""
        msg.t0_ns = self.sim.now
        self._messages[msg.msg_id] = msg
        self._pending.append(msg)
        # A full window (the common case under backlog) sends nothing.
        cwnd = self.cc.cwnd
        if cwnd < 1.0 or len(self._outstanding) < int(cwnd):
            self._maybe_send()

    @property
    def inflight(self) -> int:
        return len(self._outstanding)

    @property
    def backlog_messages(self) -> int:
        """Messages accepted but not yet fully transmitted."""
        return len(self._pending)

    def _maybe_send(self) -> None:
        pending = self._pending
        outstanding = self._outstanding
        cc = self.cc
        budget = self.config.max_burst
        now = self.sim.now
        while pending and budget > 0:
            cwnd = cc.cwnd
            if cwnd < 1.0:
                if outstanding:
                    return
                if now < self._next_allowed_send_ns:
                    self._schedule_kick(self._next_allowed_send_ns - now)
                    return
            elif len(outstanding) >= int(cwnd):
                return
            if self._gated:
                gate = self._extra_gate_ns()
                if gate > 0:
                    self._schedule_kick(gate)
                    return
            msg = pending[0]
            seq = msg.next_seq
            self._transmit(msg, seq, retransmit=False)
            msg.next_seq = seq + 1
            if msg.next_seq >= msg.size_mtus:
                pending.popleft()
            budget -= 1
            if cwnd < 1.0:
                self._next_allowed_send_ns = now + cc.pacing_gap_ns(
                    self.config.base_rtt_ns
                )
                return

    def _extra_gate_ns(self) -> int:
        """Hook for subclasses that gate sends beyond the CC window.

        Called with the head-of-line packet about to be sent; return 0 to
        allow the send (chargeable side effects are permitted — the send
        then definitely happens), or a positive wait in nanoseconds.
        Baselines use this for token buckets (QJump) and explicit rate
        grants (D3/PDQ).
        """
        return 0

    def _packet_qos(self, msg: Message, remaining_mtus: int) -> int:
        """QoS level stamped on a data packet (hook: Homa uses dynamic
        priorities derived from the message's remaining size)."""
        return self.qos

    def _transmit(self, msg: Message, seq: int, retransmit: bool) -> None:
        remaining = msg.size_mtus - seq
        msg_id = msg.msg_id
        now = self.sim.now
        # Packet's positional order: src, dst, size_bytes, qos, flow_id,
        # seq, kind, remaining_mtus, deadline_ns, msg_id.
        pkt = Packet(
            self.src,
            self.dst,
            msg.packet_payload(seq) + HEADER_BYTES,
            self._packet_qos(msg, remaining) if self._dynamic_qos else self.qos,
            self.flow_id,
            seq,
            _DATA,
            remaining,
            msg.deadline_ns,
            msg_id,
        )
        pkt.sent_time_ns = now
        outstanding = self._outstanding
        key = (msg_id, seq)
        if key in outstanding:
            self.retransmitted_packets += 1
            if self._tracer is not None:
                self._tracer.on_flow_retransmit(
                    self._flow_label, seq, now, msg_id=msg_id
                )
        outstanding[key] = pkt
        self.sent_packets += 1
        self._nic_send(pkt)
        if not self._timer_armed:
            self._arm_timer()

    def _schedule_kick(self, delay_ns: int) -> None:
        if self._kick_scheduled:
            return
        self._kick_scheduled = True
        self.sim.post(max(1, delay_ns), self._kick)

    def _kick(self) -> None:
        self._kick_scheduled = False
        self._maybe_send()

    # ------------------------------------------------------------------
    # ACK handling
    # ------------------------------------------------------------------
    def on_ack(self, msg_id: int, seq: int) -> None:
        pkt = self._outstanding.pop((msg_id, seq), None)
        if pkt is None:
            return  # duplicate / stale ACK
        now = self.sim.now
        rtt = now - pkt.sent_time_ns
        self.cc.on_ack(rtt, now)
        if self._tracer is not None:
            self._tracer.on_flow_ack(self._flow_label, self.cc.cwnd, rtt, now)
        payload = pkt.size_bytes - HEADER_BYTES
        self.acked_payload_bytes += payload
        msg = self._messages.get(msg_id)
        if msg is not None:
            # Each (msg_id, seq) is acked once (the pop above), so the
            # count reaches 0 exactly when the last packet is acked.
            msg.unacked_bytes -= payload
            if msg.unacked_bytes == 0:
                del self._messages[msg_id]
                self._complete(msg)
        if self._pending:
            self._maybe_send()

    def _complete(self, msg: Message) -> None:
        now = self.sim.now
        msg.completed_ns = now
        msg.rnl_ns = now - msg.t0_ns  # type: ignore[operator]  # set at send
        self.endpoint.on_message_complete(msg)
        if msg.on_complete is not None:
            msg.on_complete(msg)

    def remaining_payload_bytes(self, msg_id: int) -> int:
        """Unacknowledged payload of an in-progress message (0 if done)."""
        msg = self._messages.get(msg_id)
        if msg is None:
            return 0
        return msg.unacked_bytes

    def cancel_message(self, msg_id: int) -> bool:
        """Terminate a message: drop its queued and in-flight packets.

        Used by deadline transports (D3/PDQ) that quench flows which
        cannot meet their deadline.  Fires the completion callback with
        ``msg.terminated`` set so the RPC stack records the loss.
        Returns False when the message is unknown (e.g. completed).
        """
        msg = self._messages.pop(msg_id, None)
        if msg is None:
            return False
        self._pending = deque(m for m in self._pending if m is not msg)
        for key in [k for k in self._outstanding if k[0] == msg_id]:
            del self._outstanding[key]
        msg.terminated = True
        self.endpoint.on_message_complete(msg)
        if msg.on_complete is not None:
            msg.on_complete(msg)
        self._maybe_send()
        return True

    # ------------------------------------------------------------------
    # Loss recovery
    # ------------------------------------------------------------------
    def _arm_timer(self) -> None:
        if self._timer_armed or not self._outstanding:
            return
        self._timer_armed = True
        self.sim.post(self.config.rto_ns, self._on_timer)

    def _on_timer(self) -> None:
        self._timer_armed = False
        if not self._outstanding:
            return
        now = self.sim.now
        expired = [
            pkt
            for pkt in self._outstanding.values()
            if now - pkt.sent_time_ns >= self.config.rto_ns
        ]
        if expired:
            self.cc.on_loss(now)
            for pkt in expired:
                # An outstanding packet's message is always still known:
                # completion and cancellation both clear its packets.
                self._transmit(self._messages[pkt.msg_id], pkt.seq, retransmit=True)
        self._arm_timer()
        self._maybe_send()


class TransportEndpoint:
    """Host-level transport: flow demux, ACK generation, completion hooks."""

    def __init__(
        self, sim: Simulator, host: Host, config: TransportConfig = TransportConfig()
    ) -> None:
        self.sim = sim
        self.host = host
        self.config = config
        self.flows: Dict[Tuple[int, int], Flow] = {}
        self._flows_by_id: Dict[int, Flow] = {}
        self.peers: Dict[int, "TransportEndpoint"] = {}
        self.on_message_complete: Callable[[Message], None] = lambda msg: None
        self.received_data_packets = 0
        self._ack_delay_ns = max(1, config.base_rtt_ns // 2)
        self._post = sim.post
        host.handler = self.receive
        if config.ack_bypass and type(self).receive is TransportEndpoint.receive:
            # With bypassed ACKs and the stock receive(), nothing
            # observes a data packet between its arrival and its ACK's
            # return: take the arrival over and post one timer for both.
            host.on_arrival = self._ack_on_arrival

    def register_peer(self, endpoint: "TransportEndpoint") -> None:
        """Make another endpoint reachable for ACK-bypass delivery."""
        self.peers[endpoint.host.host_id] = endpoint

    def flow_to(self, dst: int, qos: int) -> Flow:
        key = (dst, qos)
        flow = self.flows.get(key)
        if flow is None:
            flow = self._make_flow(dst, qos)
            self.flows[key] = flow
            self._flows_by_id[flow.flow_id] = flow
        return flow

    def _make_flow(self, dst: int, qos: int) -> Flow:
        return Flow(self.sim, self, dst, qos, self.config)

    def send_message(self, msg: Message) -> None:
        """Entry point for the RPC stack: route the message to its flow."""
        self.flow_to(msg.dst, msg.qos).send_message(msg)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, pkt: Packet) -> None:
        kind = pkt.kind
        if kind == _DATA:
            self.received_data_packets += 1
            self._ack(pkt)
        elif kind == _ACK:
            flow = self._flows_by_id.get(pkt.flow_id)
            if flow is not None:
                flow.on_ack(pkt.msg_id, pkt.seq)
        else:
            self.handle_control(pkt)

    def handle_control(self, pkt: Packet) -> None:
        """Hook for baseline transports (grants, rate feedback)."""

    def _ack_on_arrival(self, pkt: Packet, delay_ns: int) -> bool:
        """:attr:`Host.on_arrival`: a data packet due in ``delay_ns``."""
        if pkt.kind != _DATA:
            return False
        self.received_data_packets += 1
        self._ack(pkt, delay_ns)
        return True

    def _ack(self, pkt: Packet, arrival_delay_ns: int = 0) -> None:
        if self.config.ack_bypass:
            peer = self.peers.get(pkt.src)
            if peer is None:
                raise RuntimeError(
                    "ack_bypass requires register_peer() for all senders"
                )
            flow = peer._flows_by_id.get(pkt.flow_id)
            if flow is not None:
                self._post(
                    arrival_delay_ns + self._ack_delay_ns,
                    flow.on_ack,
                    pkt.msg_id,
                    pkt.seq,
                )
            return
        ack = Packet(
            src=self.host.host_id,
            dst=pkt.src,
            size_bytes=CONTROL_BYTES,
            qos=self.config.ack_qos,
            flow_id=pkt.flow_id,
            seq=pkt.seq,
            kind=_ACK,
            msg_id=pkt.msg_id,
        )
        self.host.send(ack)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    @property
    def acked_payload_by_qos(self) -> Dict[int, int]:
        """Acknowledged payload bytes of this endpoint's flows, per QoS."""
        totals: Dict[int, int] = {}
        for flow in self.flows.values():
            totals[flow.qos] = totals.get(flow.qos, 0) + flow.acked_payload_bytes
        return totals

    def total_backlog_messages(self) -> int:
        """Messages accepted by this endpoint's flows but not yet sent."""
        return sum(flow.backlog_messages for flow in self.flows.values())

    def total_inflight(self) -> int:
        return sum(flow.inflight for flow in self.flows.values())

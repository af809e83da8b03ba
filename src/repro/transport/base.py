"""Transport-layer primitives: messages and the congestion-control interface.

A :class:`Message` is the unit applications hand to the transport — in
this reproduction it carries one RPC's payload in one direction.  The
transport segments it into MTU-sized packets and reports completion when
the last packet is acknowledged; the interval between hand-off and that
acknowledgment is exactly the paper's RPC-Network-Latency (RNL,
Appendix A): it includes time spent queued in the sender's stack behind
congestion-control backoff.
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

from repro.net.packet import MTU_BYTES, mtus_for_bytes


class NotCompletedError(AttributeError, RuntimeError):
    """``rnl_ns`` read before the message completed.

    A :class:`RuntimeError` for callers, and an :class:`AttributeError`
    so ``hasattr`` and ``getattr`` with a default treat the open
    message's latency as absent.
    """


class Message:
    """One transport message (an RPC payload in one direction).

    The RPC stack hands the transport :class:`repro.rpc.message.Rpc`
    objects, a subclass: one object per RPC is what the flow queues,
    packetises and completes.  Bare messages are for transport-level
    use and tests.

    Attributes:
        dst: destination host id.
        payload_bytes: application payload size.
        qos: QoS level the message runs at (set post-admission).
        created_ns: when the message reached the transport (start of
            RNL); the flow stamps it at hand-off.
        completed_ns: when the last packet was acknowledged (end of RNL).
        rnl_ns: the measured RPC network latency, ``completed_ns -
            created_ns``, derived on read; reading it before completion
            raises :class:`NotCompletedError`.
        on_complete: callback fired at completion with the message.
        size_mtus: size in MTUs (the unit SLOs are normalized by).
        unacked_bytes: payload not yet acknowledged; the message
            completes when it reaches 0.  Send progress is the owning
            flow's, not the message's: only the flow's head message is
            being packetised.
    """

    __slots__ = (
        "msg_id",
        "dst",
        "payload_bytes",
        "qos",
        "created_ns",
        "completed_ns",
        "on_complete",
        "deadline_ns",
        "terminated",
        "size_mtus",
        "unacked_bytes",
    )

    _id_counter = itertools.count(1)

    def __init__(
        self,
        dst: int,
        payload_bytes: int,
        qos: int,
        created_ns: int = 0,
        on_complete: Optional[Callable[["Message"], None]] = None,
        deadline_ns: Optional[int] = None,
    ) -> None:
        if payload_bytes <= 0:
            raise ValueError("message payload must be positive")
        self.msg_id = next(Message._id_counter)
        self.dst = dst
        self.payload_bytes = payload_bytes
        self.qos = qos
        self.created_ns = created_ns
        self.completed_ns: Optional[int] = None
        self.on_complete = on_complete
        self.deadline_ns = deadline_ns
        self.terminated = False
        self.size_mtus = mtus_for_bytes(payload_bytes)
        self.unacked_bytes = payload_bytes

    @property
    def rnl_ns(self) -> int:
        completed_ns = self.completed_ns
        if completed_ns is None:
            raise NotCompletedError("message has not completed")
        return completed_ns - self.created_ns

    def packet_payload(self, seq: int) -> int:
        """Payload carried by the seq-th packet of this message."""
        last = self.size_mtus - 1
        if seq < last:
            return MTU_BYTES
        if seq == last:
            return self.payload_bytes - last * MTU_BYTES
        raise IndexError(f"packet {seq} out of range for {self.payload_bytes}B message")


class CongestionControl:
    """Interface for per-flow congestion control.

    The transport calls :meth:`on_ack` for every acknowledged packet with
    the measured RTT and :meth:`on_loss` when the retransmission timer
    fires.  :attr:`cwnd` is a float window in packets; values below 1.0
    mean the flow is paced slower than one packet per RTT.
    """

    cwnd: float = 1.0

    def on_ack(self, rtt_ns: int, now_ns: int, acked_packets: int = 1) -> None:
        raise NotImplementedError

    def on_loss(self, now_ns: int) -> None:
        raise NotImplementedError

    def pacing_gap_ns(self, base_rtt_ns: int) -> int:
        """Inter-packet gap when cwnd < 1 (delay-based pacing)."""
        if self.cwnd >= 1.0:
            return 0
        return int(base_rtt_ns / max(self.cwnd, 1e-3))


class FixedWindowCC(CongestionControl):
    """Degenerate congestion control with a constant window.

    Used by experiments that must disable CC (e.g. the Fig-10 validation
    of the theoretical WFQ model, where the paper turns congestion
    control off) and by baselines that regulate rate by other means.
    """

    def __init__(self, cwnd: float = 1e9) -> None:
        self.cwnd = cwnd

    def on_ack(self, rtt_ns: int, now_ns: int, acked_packets: int = 1) -> None:
        pass

    def on_loss(self, now_ns: int) -> None:
        pass

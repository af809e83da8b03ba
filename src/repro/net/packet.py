"""Packet model.

A packet is the unit the network forwards.  It carries its QoS level in
the ``qos`` field (standing in for the DSCP bits the paper uses) plus a
small set of optional scheduling hints used by the baseline transports
(remaining size for pFabric/Homa SRPT, deadlines for D3/PDQ).

``__slots__`` keeps per-packet memory and attribute access cheap — the
simulator creates millions of these.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional

#: Default MTU payload in bytes.  The paper normalizes SLOs per MTU and
#: quotes RPC sizes in MTUs; 4096 B gives the convenient 32 KB = 8 MTUs.
MTU_BYTES = 4096

#: Fixed per-packet header overhead in bytes (Ethernet + IP + transport).
HEADER_BYTES = 64

#: Size of a pure control packet (ACK, grant, rate feedback).
CONTROL_BYTES = 64


class PacketKind(enum.IntEnum):
    DATA = 0
    ACK = 1
    GRANT = 2  # Homa receiver-driven grants
    CONTROL = 3  # D3/PDQ rate/deadline feedback


def mtus_for_bytes(size_bytes: int) -> int:
    """Number of MTU-sized packets needed for a payload."""
    if size_bytes <= 0:
        raise ValueError("payload must be positive")
    return (size_bytes + MTU_BYTES - 1) // MTU_BYTES


class Packet:
    """One network packet.

    Attributes:
        src / dst: host ids (integers assigned by the topology).
        size_bytes: wire size including header overhead.
        qos: QoS level (0 = highest).  Used by WFQ/SPQ schedulers.
        flow_id: id of the transport flow the packet belongs to.
        seq: per-flow sequence number (packet index).
        kind: DATA / ACK / GRANT / CONTROL.
        sent_time_ns: set by the transport when the packet leaves the
            sender; used for RTT measurement.
        enqueued_ns: stamped by the observability tracer when the packet
            enters an egress scheduler (queue-residency spans); nothing
            in the simulator reads it, so it cannot affect results.
        remaining_mtus: SRPT hint — MTUs left in the message *including*
            this packet (pFabric/Homa priority).
        deadline_ns: absolute deadline (D3/PDQ).
        msg_id: id of the RPC/message this packet carries a piece of.
    """

    __slots__ = (
        "src",
        "dst",
        "size_bytes",
        "qos",
        "flow_id",
        "seq",
        "kind",
        "sent_time_ns",
        "enqueued_ns",
        "remaining_mtus",
        "deadline_ns",
        "msg_id",
        "uid",
    )

    _uid_counter = itertools.count()

    def __init__(
        self,
        src: int,
        dst: int,
        size_bytes: int,
        qos: int = 0,
        flow_id: int = 0,
        seq: int = 0,
        kind: PacketKind = PacketKind.DATA,
        remaining_mtus: int = 0,
        deadline_ns: Optional[int] = None,
        msg_id: int = 0,
    ) -> None:
        self.src = src
        self.dst = dst
        self.size_bytes = size_bytes
        self.qos = qos
        self.flow_id = flow_id
        self.seq = seq
        self.kind = kind
        self.sent_time_ns = 0
        self.enqueued_ns = 0
        self.remaining_mtus = remaining_mtus
        self.deadline_ns = deadline_ns
        self.msg_id = msg_id
        self.uid = next(Packet._uid_counter)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Packet({self.kind.name} {self.src}->{self.dst} qos={self.qos} "
            f"flow={self.flow_id} seq={self.seq} {self.size_bytes}B)"
        )


"""RPC objects and completion records.

An :class:`Rpc` is what applications issue: a destination, a priority
class, and a payload.  This reproduction models WRITE-style RPCs (the
payload flows src -> dst and the transport-level ACK of the last packet
closes the measurement), matching the paper's experiments ("32KB WRITE
RPCs") and its observation that one direction dominates bytes (400:1 for
WRITEs), so the payload direction defines RNL.

An :class:`Rpc` *is* its transport message: the RPC stack hands it
straight to the transport, which queues, packetises, acknowledges and
completes it, and the metrics collector retains the same object.
"""

from __future__ import annotations

from typing import Optional

from repro.core.qos import Priority
from repro.transport.base import Message


class Rpc(Message):
    """One RPC through its lifecycle.

    Experiments create one of these per issued RPC — millions in long
    runs, all retained by the metrics collector — so issuing an RPC
    allocates this one object and nothing else.

    ``qos_requested`` is set by the Phase-1 priority mapping; ``qos``
    by the admission decision; ``completed_ns`` when the transport
    finishes (``rnl_ns`` is derived from it), and ``slo_met`` when the
    RPC stack closes it.  ``rnl_ns=`` is accepted for records built
    after the fact and must agree with the two timestamps.
    Each fact has one slot, named as the transport names it
    (``msg_id``, ``created_ns``, ``qos``); ``rpc_id``, ``issued_ns``,
    ``qos_run`` and ``downgraded`` are read-only views in the
    vocabulary of the trace spans and the live event log, for readers
    off the hot path.  A traced run's RPC span is this same object.

    ``slo_met`` is the one SLO verdict (the Fig-22 success metric): None
    while the RPC is open and for requests whose QoS carries no SLO;
    otherwise True only when it completed *at its requested QoS* within
    the SLO, so downgraded and terminated RPCs are misses.

    RPCs compare by identity.
    """

    __slots__ = ("src", "priority", "qos_requested", "slo_met")

    def __init__(
        self,
        src: int,
        dst: int,
        priority: Priority,
        payload_bytes: int,
        issued_ns: int,
        rpc_id: Optional[int] = None,
        qos_requested: Optional[int] = None,
        qos_run: Optional[int] = None,
        terminated: bool = False,
        completed_ns: Optional[int] = None,
        rnl_ns: Optional[int] = None,
    ) -> None:
        # Validates the payload before anything else happens.  (``qos``
        # stays None until the admission decision sets it.)
        Message.__init__(self, dst, payload_bytes, qos_run, issued_ns)  # type: ignore
        if rpc_id is not None:
            self.msg_id = rpc_id
        self.src = src
        self.priority = priority
        self.qos_requested = qos_requested
        self.slo_met: Optional[bool] = None
        self.terminated = terminated
        self.completed_ns = completed_ns
        if rnl_ns is not None and (
            completed_ns is None or rnl_ns != completed_ns - issued_ns
        ):
            raise ValueError(
                f"rnl_ns={rnl_ns} disagrees with issued_ns={issued_ns}, "
                f"completed_ns={completed_ns}"
            )

    @property
    def rpc_id(self) -> int:
        return self.msg_id

    @property
    def issued_ns(self) -> int:
        return self.created_ns

    @property
    def qos_run(self) -> int:
        return self.qos

    @property
    def downgraded(self) -> bool:
        return self.qos != self.qos_requested

    @property
    def completed(self) -> bool:
        return self.completed_ns is not None

    def normalized_rnl_ns(self) -> float:
        """RNL per MTU — comparable against the per-MTU SLO target.

        Raises :class:`RuntimeError` before the RPC completes."""
        return self.rnl_ns / self.size_mtus

    def __repr__(self) -> str:
        return (
            f"Rpc(rpc_id={self.msg_id}, src={self.src}, dst={self.dst}, "
            f"priority={self.priority!r}, payload_bytes={self.payload_bytes}, "
            f"issued_ns={self.created_ns}, qos_requested={self.qos_requested}, "
            f"qos_run={self.qos}, downgraded={self.downgraded}, "
            f"terminated={self.terminated}, completed_ns={self.completed_ns})"
        )

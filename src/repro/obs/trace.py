"""Structured RPC-lifecycle and network tracing.

A :class:`Tracer` collects four kinds of records while a simulation
runs:

* **RPC spans** — one per issued RPC, following the paper's lifecycle:
  issued (with the Phase-1 requested QoS), admitted or downgraded
  (Phase 2), and delivered with the measured RNL and the SLO verdict.
  A simulated RPC's span is the :class:`~repro.rpc.message.Rpc` itself
  (the collector's record), read under :class:`RpcSpan`'s field names;
  :class:`RpcSpan` is the live event log's record of the same facts;
* **queue spans** — per-hop residency: a packet's time between entering
  an egress scheduler and being picked for serialization, attributed to
  ``(node, qos)`` — the quantity the paper's WFQ delay bounds are about;
* **tx spans** — serialization intervals on each port;
* **drop / admission events** — buffer refusals, pFabric evictions, and
  every AIMD ``p_admit`` adjustment (Algorithm 1 increase/decrease).

Hook methods are only invoked by instrumented components when a tracer
is active (see :mod:`repro.obs.runtime`): every hook site in the
simulator is a single ``is not None`` test when tracing is off — the
null-object fast path that keeps the zero-overhead-off guarantee.  All
hooks are read-only with respect to simulation state (the one exception
— stamping :attr:`Packet.enqueued_ns` — writes a field nothing in the
simulator reads), so traced and untraced runs produce bit-identical
results and digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import (
    TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional, Tuple, Type,
    TypeVar, Union, get_args,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.packet import Packet
    from repro.rpc.message import Rpc


# ----------------------------------------------------------------------
# Deterministic trace / span identifiers
# ----------------------------------------------------------------------
def sim_trace_id(rpc_id: int) -> str:
    """128-bit trace id for a simulated RPC (W3C traceparent width).

    Simulated rpc_ids are globally unique integers, so the hex form is
    already collision-free and — unlike a hash — trivially invertible
    when eyeballing a trace.
    """
    return f"{rpc_id:032x}"


def sim_span_id(rpc_id: int) -> str:
    """64-bit root span id for a simulated RPC."""
    return f"{rpc_id:016x}"


def derive_trace_id(key: str) -> str:
    """128-bit trace id derived from a string key (live processes).

    Live per-client request counters collide across clients, so the id
    is hashed from a ``client:rpc`` key.  SHA-256 keeps the derivation
    deterministic (simlint bans unseeded randomness) and collision-safe.
    """
    return hashlib.sha256(key.encode()).hexdigest()[:32]


def derive_span_id(key: str) -> str:
    """64-bit span id derived from a string key (live processes)."""
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def traceparent_of(trace_id: str, span_id: str) -> str:
    """W3C-style ``traceparent`` header value (version 00, sampled)."""
    return f"00-{trace_id}-{span_id}-01"


def parse_traceparent(value: str) -> Optional[Tuple[str, str]]:
    """``(trace_id, parent_span_id)`` from a traceparent, or None."""
    parts = value.split("-")
    if len(parts) != 4 or len(parts[1]) != 32 or len(parts[2]) != 16:
        return None
    return parts[1], parts[2]


@dataclass(slots=True)
class RpcSpan:
    """One RPC's lifecycle, from issue to completion (or not).

    The live runtime's record; a simulated ``Rpc`` carries the same
    field names (``rpc_id``, ``issued_ns``, ``qos_run`` and
    ``downgraded`` as read-only views), so readers take either."""

    rpc_id: int
    src: int
    dst: int
    qos_requested: int
    qos_run: int
    downgraded: bool
    issued_ns: int
    payload_bytes: int
    size_mtus: int
    completed_ns: Optional[int] = None
    rnl_ns: Optional[int] = None
    #: SLO verdict: True/False for RPCs whose *requested* QoS carries
    #: an SLO (downgraded and terminated RPCs count as misses, matching
    #: the Fig-22 success metric), None for scavenger-class requests.
    slo_met: Optional[bool] = None
    terminated: bool = False


@dataclass(slots=True)
class QueueSpan:
    """One packet's residency in one egress scheduler.

    ``rpc_id`` is the causal link to the owning RPC span (0 when the
    packet belongs to no RPC span: pure control traffic, a bare
    transport message, or an RPC the tracer never saw issue).
    """

    node: str
    qos: int
    enqueued_ns: int
    dequeued_ns: int
    size_bytes: int
    kind: int
    rpc_id: int = 0

    @property
    def residency_ns(self) -> int:
        return self.dequeued_ns - self.enqueued_ns


@dataclass(slots=True)
class TxSpan:
    """One packet's serialization interval on a port."""

    node: str
    qos: int
    start_ns: int
    duration_ns: int
    size_bytes: int
    rpc_id: int = 0


@dataclass(slots=True)
class DropEvent:
    """A packet lost at a scheduler: buffer refusal or pFabric eviction."""

    node: str
    qos: int
    time_ns: int
    size_bytes: int
    reason: str  # "refused" | "evicted"
    rpc_id: int = 0


@dataclass(slots=True)
class AdmissionEvent:
    """One AIMD adjustment of a channel's admit probability.

    ``rpc_id`` names the completing RPC whose RNL sample drove the
    adjustment (0 for adjustments outside any RPC completion).
    """

    time_ns: int
    channel: str
    qos: int
    p_admit: float
    kind: str  # "increase" | "decrease"
    rpc_id: int = 0


@dataclass(slots=True)
class FlowCwndSample:
    """Swift congestion-control state at one ACK, for one flow."""

    time_ns: int
    flow: str  # "src->dst/qosN"
    cwnd: float
    rtt_ns: int


@dataclass(slots=True)
class FlowRetransmit:
    """One timeout-driven retransmission on a reliable flow."""

    time_ns: int
    flow: str
    seq: int
    msg_id: int = 0
    rpc_id: int = 0


Span = Union[
    RpcSpan,
    QueueSpan,
    TxSpan,
    DropEvent,
    AdmissionEvent,
    FlowCwndSample,
    FlowRetransmit,
]


#: Field names per span class, in declaration order, built once at
#: import — what ``dataclasses.asdict`` would rebuild (and deep-copy
#: through) on every record.
_FIELDS_OF: Dict[type, Tuple[str, ...]] = {
    cls: tuple(f.name for f in fields(cls)) for cls in get_args(Span)
}


def span_record(span: Union[Span, "Rpc"]) -> Dict[str, Any]:
    """The span's fields as a flat dict, in declaration order — the one
    flattening every JSONL writer (sim export, live event log) shares.

    A simulated ``Rpc`` reads under :class:`RpcSpan`'s names; an open
    RPC's unset ``rnl_ns`` reads as None."""
    names = _FIELDS_OF.get(type(span), _FIELDS_OF[RpcSpan])
    return {name: getattr(span, name, None) for name in names}


_S = TypeVar("_S")


def span_from_record(cls: Type[_S], record: Mapping[str, Any]) -> _S:
    """The inverse of :func:`span_record`: one span rebuilt from a flat
    record, such as a parsed JSONL line.  Keys that name no field of
    ``cls`` (the ``"type"`` tag, trace context) are ignored; a field the
    record lacks keeps its dataclass default."""
    names = _FIELDS_OF[cls]
    return cls(**{name: record[name] for name in names if name in record})


def queue_residency(
    spans: Iterable[QueueSpan],
) -> Dict[Tuple[str, int], Tuple[int, int, int]]:
    """Aggregate residency per ``(node, qos)``:
    ``(packets, total_residency_ns, max_ns)`` — the input of the series
    document's ``queue_residency`` block and of the trace CLI's
    top-contributors report."""
    agg: Dict[Tuple[str, int], Tuple[int, int, int]] = {}
    for span in spans:
        key = (span.node, span.qos)
        count, total, peak = agg.get(key, (0, 0, 0))
        residency = span.residency_ns
        agg[key] = (count + 1, total + residency, max(peak, residency))
    return agg


class Tracer:
    """Collects lifecycle spans from instrumented simulator components.

    Every hook takes the current simulation time explicitly — the
    caller always has it at hand, and the tracer stays free of clock
    plumbing (and of any dependency on the engine).
    """

    def __init__(self) -> None:
        self._rpc_spans: Dict[int, "Rpc"] = {}
        self.queue_spans: List[QueueSpan] = []
        self.tx_spans: List[TxSpan] = []
        self.drops: List[DropEvent] = []
        self.admission_events: List[AdmissionEvent] = []
        self.flow_cwnd_samples: List[FlowCwndSample] = []
        self.flow_retransmits: List[FlowRetransmit] = []
        # The RPC whose completion is currently driving AIMD
        # adjustments (the other causal join, packet -> RPC, needs no
        # state: an RPC is its transport message, so a packet's msg_id
        # is its RPC's id — see _rpc_of).
        self._completing_rpc_id: int = 0

    # ------------------------------------------------------------------
    # RPC lifecycle (called by repro.rpc.stack)
    # ------------------------------------------------------------------
    def on_rpc_issued(self, rpc: "Rpc") -> None:
        """Keep the RPC, after the admission decision, as its own span:
        the RPC stack fills in its completion and SLO verdict."""
        self._rpc_spans[rpc.msg_id] = rpc

    def begin_rpc_completion(self, rpc_id: int) -> None:
        """Attribute subsequent AIMD adjustments to this completing RPC."""
        self._completing_rpc_id = rpc_id

    def end_rpc_completion(self) -> None:
        self._completing_rpc_id = 0

    def _rpc_of(self, msg_id: int) -> int:
        """The RPC a packet of message ``msg_id`` belongs to, or 0.

        ``Rpc.rpc_id`` *is* ``Message.msg_id`` (one counter), so the id
        resolves when it has an RPC span; a bare transport message
        resolves to 0."""
        return msg_id if msg_id in self._rpc_spans else 0

    # ------------------------------------------------------------------
    # Queueing and transmission (called by repro.net.link / queues)
    # ------------------------------------------------------------------
    def on_enqueue(self, node: str, pkt: "Packet", now_ns: int) -> None:
        """Stamp the packet so its residency closes at dequeue time."""
        pkt.enqueued_ns = now_ns

    def on_dequeue(self, node: str, pkt: "Packet", now_ns: int) -> None:
        self.queue_spans.append(
            QueueSpan(
                node=node,
                qos=pkt.qos,
                enqueued_ns=pkt.enqueued_ns,
                dequeued_ns=now_ns,
                size_bytes=pkt.size_bytes,
                kind=int(pkt.kind),
                rpc_id=self._rpc_of(pkt.msg_id),
            )
        )

    def on_transmit(self, node: str, pkt: "Packet", now_ns: int, tx_ns: int) -> None:
        self.tx_spans.append(
            TxSpan(
                node=node,
                qos=pkt.qos,
                start_ns=now_ns,
                duration_ns=tx_ns,
                size_bytes=pkt.size_bytes,
                rpc_id=self._rpc_of(pkt.msg_id),
            )
        )

    def on_drop(self, node: str, pkt: "Packet", now_ns: int, reason: str) -> None:
        self.drops.append(
            DropEvent(
                node=node,
                qos=pkt.qos,
                time_ns=now_ns,
                size_bytes=pkt.size_bytes,
                reason=reason,
                rpc_id=self._rpc_of(pkt.msg_id),
            )
        )

    # ------------------------------------------------------------------
    # Admission control (called via repro.core.channel observer)
    # ------------------------------------------------------------------
    def on_admission(
        self, channel: str, qos: int, p_admit: float, kind: str, now_ns: int
    ) -> None:
        self.admission_events.append(
            AdmissionEvent(
                time_ns=now_ns,
                channel=channel,
                qos=qos,
                p_admit=p_admit,
                kind=kind,
                rpc_id=self._completing_rpc_id,
            )
        )

    # ------------------------------------------------------------------
    # Per-flow transport spans (called by repro.transport.reliable)
    # ------------------------------------------------------------------
    def on_flow_ack(self, flow: str, cwnd: float, rtt_ns: int, now_ns: int) -> None:
        """Record Swift cwnd/RTT state right after an ACK is absorbed."""
        self.flow_cwnd_samples.append(
            FlowCwndSample(time_ns=now_ns, flow=flow, cwnd=cwnd, rtt_ns=rtt_ns)
        )

    def on_flow_retransmit(
        self, flow: str, seq: int, now_ns: int, msg_id: int = 0
    ) -> None:
        self.flow_retransmits.append(
            FlowRetransmit(
                time_ns=now_ns,
                flow=flow,
                seq=seq,
                msg_id=msg_id,
                rpc_id=self._rpc_of(msg_id),
            )
        )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    @property
    def rpc_spans(self) -> List["Rpc"]:
        """All RPC spans, in issue order."""
        return list(self._rpc_spans.values())

    def rpc_span(self, rpc_id: int) -> Optional["Rpc"]:
        return self._rpc_spans.get(rpc_id)

    def orphan_spans(self) -> Tuple[List[QueueSpan], List[TxSpan]]:
        """Queue/tx spans that do not resolve to exactly one RPC span.

        A span is an orphan when its ``rpc_id`` is 0 (unbound packet)
        or names an RPC the tracer has no span for.  With tracing armed
        from t=0 over a reliable transport both lists are empty — the
        join-coverage property the tests pin.
        """
        orphan_queues = [
            s for s in self.queue_spans if s.rpc_id not in self._rpc_spans
        ]
        orphan_txs = [
            s for s in self.tx_spans if s.rpc_id not in self._rpc_spans
        ]
        return orphan_queues, orphan_txs

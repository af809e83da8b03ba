"""Per-RPC critical-path extraction and RNL attribution.

Aequitas is an argument about *where* RPC network latency comes from
under overload; this module turns the causal joins the tracing layer
records (sim: ``rpc_id`` threaded through packets; live: wire-propagated
trace contexts) into a latency decomposition per RPC: named segments —
admission delay, retry backoff, per-hop queue residency, serialization,
dispatch, service — that **sum exactly to the measured completion
latency**.  The conservation is by construction, not by fitting:
:func:`decompose` sweeps the RPC's ``[issued, completed]`` window over
the integer-nanosecond boundaries of every causally-attached interval,
labels each elementary slice with its highest-priority cover, and books
uncovered time as ``propagation`` (wire time plus anything nobody
instrumented).  Overlapping intervals therefore never double-count — a
queue residency that covers a retransmission still contributes each
nanosecond once.

Aggregates follow the paper's framing: per-QoS segment *shares* (the
stacked-bar decomposition of Section 2's "where does RNL go") and a
top-K-slowest exemplar table for the waterfall view.  The shares are
what ``report --diff`` gates: a regression that shifts latency from
queueing into retry backoff moves the shares even when total RNL looks
flat.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.obs.trace import Tracer, sim_trace_id

#: Attribution block schema (bump on breaking change).
ATTRIBUTION_SCHEMA = 1

#: One candidate interval: (label, start_ns, end_ns, priority).  Higher
#: priority wins where intervals overlap.
Interval = Tuple[str, int, int, int]

#: Canonical share buckets, in waterfall display order.  Detailed
#: per-hop labels (``queue:<node>``) collapse into ``queueing`` for the
#: aggregate shares; exemplars keep the per-hop detail.
SEGMENT_ORDER = (
    "admission",
    "retry_backoff",
    "queueing",
    "dispatch",
    "service",
    "serialization",
    "propagation",
)


def segment_bucket(label: str) -> str:
    """Collapse a detailed segment label into its canonical share bucket."""
    if label.startswith("queue:") or label == "queue_wait":
        return "queueing"
    return label


@dataclass(slots=True)
class RpcAttribution:
    """One RPC's completion latency, decomposed into named segments.

    Invariant (enforced by test): ``sum(segments.values()) ==
    latency_ns`` exactly — integer nanoseconds make the conservation
    exact, not approximate.
    """

    trace_id: str
    rpc_id: int
    qos_requested: int
    qos_run: int
    latency_ns: int
    segments: Dict[str, int] = field(default_factory=dict)
    downgraded: bool = False
    client: str = ""


def decompose(
    intervals: Sequence[Interval], start_ns: int, end_ns: int
) -> Dict[str, int]:
    """Label every nanosecond of ``[start_ns, end_ns)``.

    Each elementary slice between interval boundaries is attributed to
    the highest-priority interval covering it (first-come wins ties, so
    the result is deterministic for a deterministic input order);
    uncovered slices are booked as ``"propagation"``.  The returned
    segment durations sum to ``end_ns - start_ns`` exactly.
    """
    segments: Dict[str, int] = {}
    if end_ns <= start_ns:
        return segments
    clipped: List[Interval] = []
    for label, lo, hi, priority in intervals:
        lo, hi = max(lo, start_ns), min(hi, end_ns)
        if hi > lo:
            clipped.append((label, lo, hi, priority))
    bounds = sorted(
        {start_ns, end_ns}
        | {lo for _label, lo, _hi, _p in clipped}
        | {hi for _label, _lo, hi, _p in clipped}
    )
    for lo, hi in zip(bounds, bounds[1:]):
        best_label = "propagation"
        best_priority = -1
        for label, ilo, ihi, priority in clipped:
            if ilo <= lo and ihi >= hi and priority > best_priority:
                best_label = label
                best_priority = priority
        segments[best_label] = segments.get(best_label, 0) + (hi - lo)
    return segments


# ----------------------------------------------------------------------
# Simulated runs: attribution straight off the tracer's causal joins
# ----------------------------------------------------------------------
def attribute_tracer(tracer: Tracer) -> List[RpcAttribution]:
    """Decompose every completed RPC span of a traced simulation.

    Queue residency attributes per hop (``queue:<node>``), transmission
    intervals as ``serialization``; everything the packet spans do not
    cover — wire propagation, transport pacing, ACK return — books as
    ``propagation``.  Spans from packets the RPC's message never owned
    cannot leak in: the join is by ``rpc_id``.
    """
    queues: Dict[int, List[Interval]] = {}
    for qspan in tracer.queue_spans:
        if qspan.rpc_id:
            queues.setdefault(qspan.rpc_id, []).append(
                (f"queue:{qspan.node}", qspan.enqueued_ns, qspan.dequeued_ns, 2)
            )
    for tspan in tracer.tx_spans:
        if tspan.rpc_id:
            queues.setdefault(tspan.rpc_id, []).append(
                (
                    "serialization",
                    tspan.start_ns,
                    tspan.start_ns + tspan.duration_ns,
                    3,
                )
            )
    out: List[RpcAttribution] = []
    for span in tracer.rpc_spans:
        if span.completed_ns is None:
            continue
        latency_ns = span.completed_ns - span.issued_ns
        out.append(
            RpcAttribution(
                trace_id=sim_trace_id(span.rpc_id),
                rpc_id=span.rpc_id,
                qos_requested=span.qos_requested or 0,
                qos_run=span.qos_run,
                latency_ns=latency_ns,
                segments=decompose(
                    queues.get(span.rpc_id, ()), span.issued_ns, span.completed_ns
                ),
                downgraded=span.downgraded,
            )
        )
    return out


# ----------------------------------------------------------------------
# Live runs: attribution from the joined client + server event logs
# ----------------------------------------------------------------------
def attribute_live(
    client_records: Sequence[Sequence[Mapping[str, Any]]],
    server_records: Sequence[Mapping[str, Any]],
) -> List[RpcAttribution]:
    """Decompose every traced, completed live RPC across both logs.

    The join key is the wire-propagated trace id: client-side ``rpc`` /
    ``attempt`` / ``retry`` records and server-side ``queue`` /
    ``service`` records carrying the same ``trace_id`` belong to one
    RPC.  All timestamps share the run's clock origin (the parent ships
    it to every process), so server-side intervals clip directly into
    the client-side ``[issued, completed]`` window.  Untraced records
    (no ``trace_id``) are skipped — attribution needs the join.
    """
    retries: Dict[str, List[Mapping[str, Any]]] = {}
    for records in client_records:
        for record in records:
            if record.get("type") == "retry" and "trace_id" in record:
                retries.setdefault(str(record["trace_id"]), []).append(record)
    server_queue: Dict[str, List[Mapping[str, Any]]] = {}
    service: Dict[str, List[Mapping[str, Any]]] = {}
    for record in server_records:
        kind = record.get("type")
        if "trace_id" not in record:
            continue
        if kind == "queue":
            server_queue.setdefault(str(record["trace_id"]), []).append(record)
        elif kind == "service":
            service.setdefault(str(record["trace_id"]), []).append(record)

    out: List[RpcAttribution] = []
    for records in client_records:
        client = ""
        for record in records:
            if record.get("type") == "run" and "client" in record:
                client = str(record["client"])
                break
        for record in records:
            if record.get("type") != "rpc" or "trace_id" not in record:
                continue
            if record.get("completed_ns") is None:
                continue
            trace_id = str(record["trace_id"])
            issued_ns = int(record["issued_ns"])
            completed_ns = int(record["completed_ns"])
            intervals: List[Interval] = [
                (
                    "admission",
                    issued_ns,
                    issued_ns + int(record.get("decide_ns", 0)),
                    6,
                )
            ]
            for retry in retries.get(trace_id, ()):
                start = int(retry["time_ns"])
                intervals.append(
                    ("retry_backoff", start, start + int(retry["delay_ns"]), 5)
                )
            # Server-side segments, joined per attempt (parent span id)
            # so the dispatch gap — dequeue to service start on the
            # virtual schedule — pairs queue and service correctly.
            service_start_by_parent: Dict[str, int] = {}
            for svc in service.get(trace_id, ()):
                start = int(svc["start_ns"])
                intervals.append(
                    ("service", start, start + int(svc["duration_ns"]), 3)
                )
                service_start_by_parent[str(svc.get("parent_id", ""))] = start
            for qrec in server_queue.get(trace_id, ()):
                enq, deq = int(qrec["enqueued_ns"]), int(qrec["dequeued_ns"])
                intervals.append(("queue_wait", enq, deq, 4))
                svc_start = service_start_by_parent.get(
                    str(qrec.get("parent_id", ""))
                )
                if svc_start is not None and svc_start > deq:
                    intervals.append(("dispatch", deq, svc_start, 2))
            out.append(
                RpcAttribution(
                    trace_id=trace_id,
                    rpc_id=int(record["rpc_id"]),
                    qos_requested=int(record["qos_requested"]),
                    qos_run=int(record["qos_run"]),
                    latency_ns=completed_ns - issued_ns,
                    segments=decompose(intervals, issued_ns, completed_ns),
                    downgraded=bool(record.get("downgraded", False)),
                    client=client,
                )
            )
    return out


# ----------------------------------------------------------------------
# Aggregation and rendering
# ----------------------------------------------------------------------
def attribution_block(
    rpcs: Sequence[RpcAttribution], top_k: int = 5
) -> Dict[str, Any]:
    """JSON-safe aggregate: per-QoS segment shares + top-K exemplars.

    Shares bucket the detailed labels (all ``queue:<hop>`` residencies
    fold into ``queueing``) and divide by the QoS class's total
    latency, so every per-QoS share vector sums to 1.0 — the invariant
    the ``report --diff`` attribution gate leans on.
    """
    per_qos: Dict[str, Dict[str, Any]] = {}
    for rpc in rpcs:
        key = str(rpc.qos_requested)
        block = per_qos.setdefault(
            key, {"count": 0, "latency_ns": 0, "segments_ns": {}}
        )
        block["count"] += 1
        block["latency_ns"] += rpc.latency_ns
        for label, duration_ns in rpc.segments.items():
            bucket = segment_bucket(label)
            block["segments_ns"][bucket] = (
                block["segments_ns"].get(bucket, 0) + duration_ns
            )
    for block in per_qos.values():
        total = block["latency_ns"]
        block["shares"] = {
            bucket: (duration_ns / total if total else 0.0)
            for bucket, duration_ns in sorted(block["segments_ns"].items())
        }
    exemplars = sorted(rpcs, key=lambda r: (-r.latency_ns, r.trace_id))[:top_k]
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "rpcs": len(rpcs),
        "per_qos": per_qos,
        "exemplars": [
            {
                "trace_id": rpc.trace_id,
                "rpc_id": rpc.rpc_id,
                "client": rpc.client,
                "qos_requested": rpc.qos_requested,
                "qos_run": rpc.qos_run,
                "downgraded": rpc.downgraded,
                "latency_ns": rpc.latency_ns,
                "segments": dict(sorted(rpc.segments.items())),
            }
            for rpc in exemplars
        ],
    }


def _bucket_order(bucket: str) -> Tuple[int, str]:
    try:
        return (SEGMENT_ORDER.index(bucket), bucket)
    except ValueError:
        return (len(SEGMENT_ORDER), bucket)


def render_attribution_block(block: Mapping[str, Any]) -> str:
    """The "RNL attribution" text panel from a computed block."""
    if not block or not block.get("rpcs"):
        return (
            "RNL attribution: no traced completed RPCs "
            "(run with tracing on to populate this panel)"
        )
    lines = [f"RNL attribution ({block['rpcs']} completed RPCs):"]
    per_qos = block.get("per_qos", {})
    for key in sorted(per_qos, key=lambda k: (not k.isdigit(), k)):
        qos_block = per_qos[key]
        count = qos_block.get("count", 0)
        mean_us = (
            qos_block.get("latency_ns", 0) / count / 1e3 if count else 0.0
        )
        lines.append(
            f"  QoS {key}: {count} RPCs, mean latency {mean_us:.1f} us"
        )
        shares = qos_block.get("shares", {})
        for bucket in sorted(shares, key=_bucket_order):
            share = float(shares[bucket])
            bar = "#" * max(1, round(share * 30)) if share > 0 else ""
            lines.append(f"    {bucket:<14} {share * 100:5.1f}%  {bar}")
    exemplars = block.get("exemplars", [])
    if exemplars:
        lines.append("  slowest exemplars (waterfall):")
        for rank, ex in enumerate(exemplars, start=1):
            latency_us = float(ex["latency_ns"]) / 1e3
            who = f" {ex['client']}" if ex.get("client") else ""
            lines.append(
                f"    #{rank}{who} rpc {ex['rpc_id']} "
                f"qos {ex['qos_requested']}->{ex['qos_run']} "
                f"{latency_us:.1f} us (trace ..{str(ex['trace_id'])[-12:]})"
            )
            total = max(1, int(ex["latency_ns"]))
            segments = ex.get("segments", {})
            for label in sorted(
                segments, key=lambda s: (_bucket_order(segment_bucket(s)), s)
            ):
                duration_ns = int(segments[label])
                width = round(duration_ns / total * 40)
                lines.append(
                    f"      {label:<18} {duration_ns / 1e3:9.1f} us "
                    f"|{'=' * width}"
                )
    return "\n".join(lines)


def attribution_report(rpcs: Sequence[RpcAttribution], top_k: int = 5) -> str:
    """Aggregate + render in one step (the trace CLI's panel)."""
    return render_attribution_block(attribution_block(rpcs, top_k=top_k))


__all__ = [
    "ATTRIBUTION_SCHEMA",
    "Interval",
    "RpcAttribution",
    "SEGMENT_ORDER",
    "attribute_live",
    "attribute_tracer",
    "attribution_block",
    "attribution_report",
    "decompose",
    "render_attribution_block",
    "segment_bucket",
]

"""Trace exporters: JSONL, Chrome ``trace_event`` JSON, text summaries.

The Chrome format (one ``traceEvents`` array of ``ph``-typed records,
timestamps and durations in microseconds) loads directly into Perfetto
(https://ui.perfetto.dev) and ``chrome://tracing``:

* each network node (switch egress port, host NIC) becomes a *process*
  with a ``process_name`` metadata record, and each QoS class a
  *thread* inside it, so queue residency stacks per (node, qos) exactly
  like the paper's per-hop decomposition;
* queue residency and serialization intervals are complete (``ph: X``)
  events; drops are instants (``ph: i``); AIMD ``p_admit`` adjustments
  are counter tracks (``ph: C``) — the convergence plots of Section 6.3
  fall out of Perfetto's counter view directly;
* RPC spans live under one ``rpcs`` process, threaded by source host.

The text reports answer the first diagnostic questions — where does
queue residency accumulate per QoS, how many RPCs downgraded, what does
the SLO verdict look like — without leaving the terminal.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union, cast

from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import SimProfiler
from repro.obs.trace import (
    Span, Tracer, queue_residency, sim_span_id, sim_trace_id, span_record,
)


def _us(ns: int) -> float:
    return ns / 1000.0


def _event_sort_key(event: Dict[str, object]) -> Tuple[float, int, str, str]:
    return (
        cast(float, event.get("ts", 0.0)),
        cast(int, event["pid"]),
        str(event.get("tid", "")),
        cast(str, event["name"]),
    )


def chrome_trace(
    tracer: Tracer,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Build a Chrome ``trace_event`` document from a tracer's records."""
    events: List[Dict[str, object]] = []

    # Stable pid assignment: rpcs first, then nodes sorted by name.
    nodes = sorted(
        {span.node for span in tracer.queue_spans}
        | {span.node for span in tracer.tx_spans}
        | {drop.node for drop in tracer.drops}
    )
    rpc_pid = 1
    pids = {node: i + 2 for i, node in enumerate(nodes)}
    events.append(
        {
            "name": "process_name",
            "ph": "M",
            "pid": rpc_pid,
            "args": {"name": "rpcs"},
        }
    )
    for node, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": node},
            }
        )

    # Flow-event bookkeeping: where each RPC slice lives (the arrow
    # source) and one "s"/"f" pair per causally-linked child slice.
    rpc_anchor: Dict[int, Tuple[int, float]] = {}
    flow_events: List[Dict[str, object]] = []
    known_rpcs = {span.rpc_id for span in tracer.rpc_spans}

    def _link(rpc_id: int, pid: int, tid: object, ts: float) -> None:
        """Draw a Perfetto arrow from an RPC slice to a child slice."""
        anchor = rpc_anchor.get(rpc_id)
        if anchor is None:
            return
        src_tid, src_ts = anchor
        flow_id = f"{rpc_id}:{len(flow_events) // 2}"
        flow_events.append(
            {
                "name": "causal",
                "cat": "flow",
                "ph": "s",
                "id": flow_id,
                "pid": rpc_pid,
                "tid": src_tid,
                "ts": src_ts,
            }
        )
        flow_events.append(
            {
                "name": "causal",
                "cat": "flow",
                "ph": "f",
                "bp": "e",
                "id": flow_id,
                "pid": pid,
                "tid": tid,
                "ts": ts,
            }
        )

    for span in tracer.rpc_spans:
        if span.completed_ns is not None:
            rpc_anchor[span.rpc_id] = (span.src, _us(span.issued_ns))
            events.append(
                {
                    "name": f"rpc {span.src}->{span.dst} q{span.qos_run}",
                    "cat": "rpc",
                    "ph": "X",
                    "pid": rpc_pid,
                    "tid": span.src,
                    "ts": _us(span.issued_ns),
                    "dur": _us(span.completed_ns - span.issued_ns),
                    "args": {
                        "rpc_id": span.rpc_id,
                        "trace_id": sim_trace_id(span.rpc_id),
                        "span_id": sim_span_id(span.rpc_id),
                        "qos_requested": span.qos_requested,
                        "qos_run": span.qos_run,
                        "downgraded": span.downgraded,
                        "rnl_ns": span.rnl_ns,
                        "slo_met": span.slo_met,
                        "payload_bytes": span.payload_bytes,
                    },
                }
            )
        else:
            events.append(
                {
                    "name": "rpc terminated" if span.terminated else "rpc open",
                    "cat": "rpc",
                    "ph": "i",
                    "s": "t",
                    "pid": rpc_pid,
                    "tid": span.src,
                    "ts": _us(span.issued_ns),
                    "args": {
                        "rpc_id": span.rpc_id,
                        "trace_id": sim_trace_id(span.rpc_id),
                        "qos_run": span.qos_run,
                    },
                }
            )

    for qspan in tracer.queue_spans:
        args: Dict[str, object] = {"bytes": qspan.size_bytes, "kind": qspan.kind}
        if qspan.rpc_id in known_rpcs:
            args["rpc_id"] = qspan.rpc_id
            args["trace_id"] = sim_trace_id(qspan.rpc_id)
            _link(qspan.rpc_id, pids[qspan.node], qspan.qos, _us(qspan.enqueued_ns))
        events.append(
            {
                "name": f"queue q{qspan.qos}",
                "cat": "queue",
                "ph": "X",
                "pid": pids[qspan.node],
                "tid": qspan.qos,
                "ts": _us(qspan.enqueued_ns),
                "dur": _us(qspan.residency_ns),
                "args": args,
            }
        )

    for tspan in tracer.tx_spans:
        args = {"bytes": tspan.size_bytes}
        if tspan.rpc_id in known_rpcs:
            args["rpc_id"] = tspan.rpc_id
            args["trace_id"] = sim_trace_id(tspan.rpc_id)
            _link(tspan.rpc_id, pids[tspan.node], tspan.qos, _us(tspan.start_ns))
        events.append(
            {
                "name": f"tx q{tspan.qos}",
                "cat": "tx",
                "ph": "X",
                "pid": pids[tspan.node],
                "tid": tspan.qos,
                "ts": _us(tspan.start_ns),
                "dur": _us(tspan.duration_ns),
                "args": args,
            }
        )

    for drop in tracer.drops:
        args = {"bytes": drop.size_bytes}
        if drop.rpc_id in known_rpcs:
            args["rpc_id"] = drop.rpc_id
            args["trace_id"] = sim_trace_id(drop.rpc_id)
        events.append(
            {
                "name": f"drop ({drop.reason})",
                "cat": "drop",
                "ph": "i",
                "s": "t",
                "pid": pids[drop.node],
                "tid": drop.qos,
                "ts": _us(drop.time_ns),
                "args": args,
            }
        )

    events.extend(flow_events)

    for adm in tracer.admission_events:
        events.append(
            {
                "name": f"p_admit {adm.channel} q{adm.qos}",
                "cat": "admission",
                "ph": "C",
                "pid": rpc_pid,
                "ts": _us(adm.time_ns),
                "args": {"p_admit": adm.p_admit},
            }
        )

    # Per-flow transport spans: Swift cwnd and RTT as counter tracks,
    # retransmits as instants, under one "transport" process.
    if tracer.flow_cwnd_samples or tracer.flow_retransmits:
        transport_pid = rpc_pid + 1 + len(pids)
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": transport_pid,
                "args": {"name": "transport"},
            }
        )
        for sample in tracer.flow_cwnd_samples:
            events.append(
                {
                    "name": f"cwnd {sample.flow}",
                    "cat": "transport",
                    "ph": "C",
                    "pid": transport_pid,
                    "ts": _us(sample.time_ns),
                    "args": {"cwnd": sample.cwnd},
                }
            )
            events.append(
                {
                    "name": f"rtt_us {sample.flow}",
                    "cat": "transport",
                    "ph": "C",
                    "pid": transport_pid,
                    "ts": _us(sample.time_ns),
                    "args": {"rtt_us": _us(sample.rtt_ns)},
                }
            )
        for retx in tracer.flow_retransmits:
            events.append(
                {
                    "name": f"retransmit {retx.flow}",
                    "cat": "transport",
                    "ph": "i",
                    "s": "t",
                    "pid": transport_pid,
                    "tid": 0,
                    "ts": _us(retx.time_ns),
                    "args": {"seq": retx.seq},
                }
            )

    # Deterministic export ordering: metadata first (insertion order is
    # already stable — pids ascend), then a stable sort of the rest by
    # (ts, pid, tid, name) so traces with equal digests diff cleanly.
    meta = [e for e in events if e["ph"] == "M"]
    body = sorted((e for e in events if e["ph"] != "M"), key=_event_sort_key)
    doc: Dict[str, object] = {
        "traceEvents": meta + body,
        "displayTimeUnit": "ns",
    }
    other: Dict[str, object] = {}
    if registry is not None and registry.series:
        other["metrics_series_samples"] = len(registry.series)
    doc["otherData"] = other
    return doc


def write_chrome_trace(
    path: Union[str, Path],
    tracer: Tracer,
    registry: Optional[MetricsRegistry] = None,
) -> Path:
    """Write a Perfetto-loadable trace file; returns its path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer, registry), fh)
    return path


def write_jsonl(path: Union[str, Path], tracer: Tracer) -> Path:
    """Write every trace record as one typed JSON object per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    streams: Tuple[Tuple[str, Sequence[Span]], ...] = (
        ("queue", tracer.queue_spans),
        ("tx", tracer.tx_spans),
        ("drop", tracer.drops),
        ("admission", tracer.admission_events),
        ("flow", tracer.flow_cwnd_samples),
        ("flow_retransmit", tracer.flow_retransmits),
    )
    with open(path, "w") as fh:
        for rspan in tracer.rpc_spans:
            record = {
                "type": "rpc",
                **span_record(rspan),
                "trace_id": sim_trace_id(rspan.rpc_id),
                "span_id": sim_span_id(rspan.rpc_id),
            }
            fh.write(json.dumps(record) + "\n")
        for kind, spans in streams:
            for span in spans:
                record = {"type": kind, **span_record(span)}
                # Derived trace context for a span owned by an RPC (a
                # cwnd sample has no owner; unbound packets carry 0).
                rpc_id = getattr(span, "rpc_id", 0)
                if rpc_id:
                    record["trace_id"] = sim_trace_id(rpc_id)
                    record["parent_id"] = sim_span_id(rpc_id)
                fh.write(json.dumps(record) + "\n")
    return path


def write_metrics_series(path: Union[str, Path], registry: MetricsRegistry) -> Path:
    """Write the sim-time snapshot series as JSONL (one tick per line)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for now_ns, snapshot in registry.series:
            fh.write(json.dumps({"t_ns": now_ns, "metrics": snapshot}) + "\n")
    return path


# ----------------------------------------------------------------------
# Text summaries
# ----------------------------------------------------------------------
def queue_residency_report(tracer: Tracer, top_k: int = 5) -> str:
    """Top queue-residency contributors per QoS class.

    This is the per-hop decomposition view: for each QoS, which egress
    queues accumulated the most total residency (and how bad the worst
    single packet got).
    """
    by_key = queue_residency(tracer.queue_spans)
    if not by_key:
        return "queue residency: no queue spans recorded"
    qos_levels = sorted({qos for (_node, qos) in by_key})
    lines = ["queue residency by QoS (top contributors):"]
    for qos in qos_levels:
        rows = [
            (node, count, total, peak)
            for (node, q), (count, total, peak) in by_key.items()
            if q == qos
        ]
        rows.sort(key=lambda r: (-r[2], r[0]))
        total_qos = sum(r[2] for r in rows)
        lines.append(f"  QoS {qos}: {total_qos / 1e3:.1f} us total residency")
        for node, count, total, peak in rows[:top_k]:
            share = total / total_qos if total_qos else 0.0
            mean_us = total / count / 1e3 if count else 0.0
            lines.append(
                f"    {share * 100:5.1f}%  {node:<16} "
                f"{total / 1e3:9.1f} us over {count} pkts "
                f"(mean {mean_us:.2f} us, max {peak / 1e3:.2f} us)"
            )
        hidden = len(rows) - top_k
        if hidden > 0:
            lines.append(f"    ... and {hidden} more queues")
    return "\n".join(lines)


def rpc_report(tracer: Tracer) -> str:
    """Per-QoS RPC lifecycle counts and SLO verdicts."""
    spans = tracer.rpc_spans
    if not spans:
        return "rpcs: no spans recorded"
    by_qos: Dict[int, List[int]] = {}
    for span in spans:
        row = by_qos.setdefault(span.qos_requested or 0, [0, 0, 0, 0, 0])
        row[0] += 1
        if span.downgraded:
            row[1] += 1
        if span.completed:
            row[2] += 1
        if span.slo_met:
            row[3] += 1
        if span.terminated:
            row[4] += 1
    lines = [f"rpcs: {len(spans)} issued"]
    for qos in sorted(by_qos):
        issued, downgraded, completed, met, terminated = by_qos[qos]
        lines.append(
            f"  requested QoS {qos}: {issued} issued, {downgraded} downgraded, "
            f"{completed} completed, {met} met SLO, {terminated} terminated"
        )
    if tracer.drops:
        lines.append(f"drops: {len(tracer.drops)} packets")
    if tracer.admission_events:
        decreases = sum(1 for e in tracer.admission_events if e.kind == "decrease")
        lines.append(
            f"admission: {len(tracer.admission_events)} p_admit adjustments "
            f"({decreases} decreases)"
        )
    return "\n".join(lines)


def trace_report(
    tracer: Tracer,
    profiler: Optional[SimProfiler] = None,
    top_k: int = 5,
) -> str:
    """The full text summary the trace CLI prints."""
    parts = [rpc_report(tracer), queue_residency_report(tracer, top_k)]
    if profiler is not None:
        parts.append(profiler.report(top=top_k))
    return "\n\n".join(parts)

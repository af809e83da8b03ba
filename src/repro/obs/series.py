"""First-class time series of a run, sim or live, from one builder.

A traced simulation leaves its run as raw material: the
:class:`~repro.obs.trace.Tracer` holds span records (AIMD ``p_admit``
adjustments, queue residencies, per-flow cwnd samples and retransmits)
and the :class:`~repro.obs.metrics.MetricsRegistry` holds sim-time
snapshots of every instrument.  A live run leaves the same material as
JSONL: its event logs carry the same span dataclasses (written by
:func:`~repro.obs.trace.span_record`) and every process keeps a metrics
snapshot log.  :func:`build_series` turns either into the *analysis*
views the paper's dynamic claims are about:

* **p_admit trajectories** per ``(src->dst, QoS)`` channel — the input
  to the steady-state detector in :mod:`repro.analysis.convergence`
  (Algorithm 1 convergence, Section 6.6);
* **rolling RNL percentiles** per QoS — windowed between grid times by
  differencing cumulative histogram bucket counts, plotted against the
  per-QoS SLO line (Section 5.1);
* **goodput tracks** per QoS — windowed completion-byte rates in Gbps;
* **queue residency** per ``node/qosN`` and a compact **flow summary**
  (the full cwnd/RTT tracks live in the Chrome trace, not the store).

A simulation is the one-process case: ``TracedRun.series`` passes the
tracer's span lists, ``[registry.series]`` and the snapshot times as
the grid.  :func:`build_live_series` rebuilds the spans from the
records with :func:`~repro.obs.trace.span_from_record` and passes one
snapshot series per process and a :func:`uniform_grid`.  Each caller
computes the attribution block itself, because the two worlds join
their spans differently; both pass the SLO miss rate that
:func:`slo_miss_rates_from_spans` counts from exact ``slo_met``
verdicts.

Everything returned here is JSON-safe (nested dicts / lists / numbers)
so the runner can embed it verbatim in the result-store document.  The
series are *derived after the run ends* from read-only records, so they
can never perturb simulation results — the digest-parity guarantee is
untouched.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.obs.trace import (
    AdmissionEvent,
    FlowCwndSample,
    FlowRetransmit,
    QueueSpan,
    queue_residency,
    span_from_record,
)

#: Version of the embedded series schema (bump on breaking change).
SERIES_SCHEMA = 1

#: One time series: (time_ns, value) points in time order.
Track = List[Tuple[int, float]]

#: One process's sampled snapshots: (time_ns, snapshot) in time order.
SnapshotSeries = List[Tuple[int, Dict[str, object]]]

#: Percentiles materialized for the rolling RNL tracks.
RNL_PERCENTILES: Tuple[float, ...] = (50.0, 99.0)


def _parse_qos(label: str, metric: str) -> Optional[int]:
    """QoS of an instrument label like ``rnl_norm_ns{qos=1}`` (or None)."""
    prefix = metric + "{qos="
    if not label.startswith(prefix) or not label.endswith("}"):
        return None
    body = label[len(prefix) : -1]
    # Reject multi-tag labels (e.g. "...,node=sw0"); series are per-QoS.
    if not body.isdigit():
        return None
    return int(body)


def _time_of(point: Tuple[int, float]) -> int:
    return point[0]


def p_admit_events(events: Iterable[AdmissionEvent]) -> Dict[str, Track]:
    """Raw admit-probability adjustments per ``src->dst/qosN`` channel.

    One point per AIMD adjustment (Algorithm 1 increase/decrease),
    stably sorted by time: a tracer's events are in time order already,
    the merged logs of several live processes are not, and two
    adjustments in one nanosecond keep the order they were made in.
    """
    tracks: Dict[str, Track] = {}
    for event in events:
        key = f"{event.channel}/qos{event.qos}"
        tracks.setdefault(key, []).append((event.time_ns, event.p_admit))
    for track in tracks.values():
        track.sort(key=_time_of)
    return tracks


def uniform_grid(duration_ns: int, points: int = 120) -> List[int]:
    """A uniform analysis grid over ``[0, duration_ns]``."""
    if points < 2:
        raise ValueError("need at least two grid points")
    step = duration_ns / (points - 1)
    return [int(i * step) for i in range(points)]


def fill_on_grid(track: Track, grid: Sequence[int], initial: float = 1.0) -> Track:
    """Forward-fill a step-function event track onto a time grid.

    ``p_admit`` starts at ``initial`` (1.0 — Algorithm 1's optimistic
    start) and holds its last adjusted value between adjustments, which
    is exactly how the controller's state behaves: a channel that
    stopped adjusting reads as settled, not as silent.  Points are
    stably sorted by time first, so of two adjustments in one
    nanosecond the one made last holds.
    """
    ordered = sorted(track, key=_time_of)
    filled: Track = []
    value = initial
    i = 0
    for t in grid:
        while i < len(ordered) and ordered[i][0] <= t:
            value = ordered[i][1]
            i += 1
        filled.append((t, value))
    return filled


def _counts_quantile(
    counts: Sequence[int], bounds: Sequence[float], q: float
) -> float:
    """Interpolated quantile over one windowed bucket-count array.

    Mirrors :meth:`Histogram.quantile` but works on a plain counts
    array (a delta between two snapshots), so min/max clamping is
    unavailable — bucket edges bound the interpolation instead.
    """
    total = sum(counts)
    if total == 0:
        raise ValueError("empty window")
    target = q * total
    cumulative = 0
    for i, bucket_count in enumerate(counts):
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= target:
            lower = bounds[i - 1] if i > 0 else 0.0
            upper = bounds[i] if i < len(bounds) else bounds[-1]
            if upper <= lower:
                return lower
            fraction = (target - cumulative) / bucket_count
            return lower + fraction * (upper - lower)
        cumulative += bucket_count
    return float(bounds[-1])  # pragma: no cover - target <= total


def _snapshot_buckets(
    snapshot: Dict[str, object], label: str
) -> Optional[List[int]]:
    entry = snapshot.get(label)
    if not isinstance(entry, dict):
        return None
    buckets = entry.get("buckets")
    if not isinstance(buckets, list):
        return None
    return [int(b) for b in buckets]


def _latest_at(series: SnapshotSeries, t_ns: int) -> Optional[Dict[str, object]]:
    """Youngest snapshot taken at or before ``t_ns`` (None if none)."""
    latest: Optional[Dict[str, object]] = None
    for time_ns, snap in series:
        if time_ns > t_ns:
            break
        latest = snap
    return latest


def _labels_in(series_list: Sequence[SnapshotSeries], metric: str) -> Dict[str, int]:
    return {
        label: qos
        for series in series_list
        for _t, snap in series
        for label in snap
        if (qos := _parse_qos(label, metric)) is not None
    }


def rnl_tracks_from_snapshots(
    series_list: Sequence[SnapshotSeries],
    bounds_by_label: Mapping[str, Sequence[float]],
    grid: Sequence[int],
    percentiles: Sequence[float] = RNL_PERCENTILES,
) -> Dict[str, Dict[str, Track]]:
    """Rolling per-QoS normalized-RNL percentiles between grid times.

    Needs snapshots that carry bucket counts
    (``install_sampler(..., include_buckets=True)``).  Cumulative bucket
    counts are summable across processes, so at each grid time every
    process contributes its youngest snapshot at or before that time;
    consecutive merged totals are then differenced into windowed
    histograms (a process's contribution lags by at most one sampling
    interval; a simulation gridded on its own snapshot times lags by
    none).  Windows with no completions contribute no point, so tracks
    may be sparse early in a run.  Keys: ``str(qos) -> {"p50": track,
    "p99": track}``.
    """
    out: Dict[str, Dict[str, Track]] = {}
    for label, qos in sorted(_labels_in(series_list, "rnl_norm_ns").items()):
        bounds = bounds_by_label.get(label)
        if bounds is None:
            continue
        prev: Optional[List[int]] = None
        tracks: Dict[str, Track] = {f"p{p:g}": [] for p in percentiles}
        for t in grid:
            merged = [0] * (len(bounds) + 1)
            seen = False
            for series in series_list:
                snap = _latest_at(series, t)
                if snap is None:
                    continue
                buckets = _snapshot_buckets(snap, label)
                if buckets is None or len(buckets) != len(merged):
                    continue
                seen = True
                for i, count in enumerate(buckets):
                    merged[i] += count
            if not seen:
                continue
            if prev is not None:
                window = [b - a for a, b in zip(prev, merged)]
                if sum(window) > 0:
                    for p in percentiles:
                        value = _counts_quantile(window, bounds, p / 100.0)
                        tracks[f"p{p:g}"].append((t, value))
            prev = merged
        out[str(qos)] = tracks
    return out


def goodput_tracks_from_snapshots(
    series_list: Sequence[SnapshotSeries], grid: Sequence[int]
) -> Dict[str, Track]:
    """Windowed per-QoS goodput in Gbps between grid times: cumulative
    ``rpc_completed_bytes`` counters summed across processes, then
    differenced (bits per nanosecond is numerically Gbps)."""
    out: Dict[str, Track] = {}
    for label, qos in sorted(
        _labels_in(series_list, "rpc_completed_bytes").items()
    ):
        prev_t: Optional[int] = None
        prev_v: Optional[float] = None
        track: Track = []
        for t in grid:
            total = 0.0
            seen = False
            for series in series_list:
                snap = _latest_at(series, t)
                if snap is None:
                    continue
                value = snap.get(label)
                if isinstance(value, (int, float)):
                    total += float(value)
                    seen = True
            if not seen:
                continue
            if prev_t is not None and prev_v is not None and t > prev_t:
                track.append((t, (total - prev_v) * 8.0 / (t - prev_t)))
            prev_t, prev_v = t, total
        out[str(qos)] = track
    return out


def slo_miss_rates_from_spans(records: Iterable[Any]) -> Dict[str, float]:
    """A run's whole-run SLO miss rate per requested QoS, counted from
    exact ``slo_met`` verdicts.

    One walker over either world's records: a simulation passes its
    tracer's RPC spans (the ``Rpc`` records), a live run its client log
    records, of which the ``"rpc"`` ones count.  Terminated RPCs carry a
    False verdict in both worlds; open and scavenger-class RPCs (None)
    are not counted.
    """
    tracked: Dict[int, int] = {}
    missed: Dict[int, int] = {}
    for record in records:
        if not isinstance(record, Mapping):
            met, qos = record.slo_met, record.qos_requested
        elif record.get("type") == "rpc":
            met, qos = record.get("slo_met"), record["qos_requested"]
        else:
            continue
        if met is None:
            continue
        qos = int(qos)
        tracked[qos] = tracked.get(qos, 0) + 1
        if not met:
            missed[qos] = missed.get(qos, 0) + 1
    return {
        str(qos): missed.get(qos, 0) / count
        for qos, count in sorted(tracked.items())
        if count
    }


def flow_summary(records: Iterable[Any]) -> Dict[str, object]:
    """Compact transport digest: cwnd samples, flows, retransmits.

    One walker over either world's records.  A simulation passes its
    :class:`~repro.obs.trace.FlowCwndSample` and
    :class:`~repro.obs.trace.FlowRetransmit` spans; a live run passes
    its client log records, where every ``"conn"`` peer is a flow and
    every ``"retry"`` (keyed by reason) is the live analog of a
    retransmit.  Other records are ignored.
    """
    samples = 0
    flows = set()
    retransmits: Dict[str, int] = {}
    for record in records:
        if isinstance(record, FlowCwndSample):
            samples += 1
            flows.add(record.flow)
        elif isinstance(record, FlowRetransmit):
            retransmits[record.flow] = retransmits.get(record.flow, 0) + 1
        elif record.get("type") == "retry":
            reason = str(record.get("reason", "retry"))
            retransmits[reason] = retransmits.get(reason, 0) + 1
        elif record.get("type") == "conn":
            flows.add(str(record.get("peer", "?")))
    return {
        "cwnd_samples": samples,
        "flows": len(flows),
        "retransmits": retransmits,
    }


def snapshot_series_from_records(
    records: Sequence[Mapping[str, Any]],
) -> Tuple[SnapshotSeries, Dict[str, List[float]]]:
    """One process's ``"metrics"`` log parsed into a snapshot series
    plus the accumulated histogram bucket bounds (bounds ride on a
    snapshot line only when they change)."""
    series: SnapshotSeries = []
    bounds: Dict[str, List[float]] = {}
    for record in records:
        if record.get("type") != "metrics":
            continue
        snap = record.get("metrics")
        if not isinstance(snap, dict):
            continue
        series.append((int(record["time_ns"]), snap))
        carried = record.get("bounds")
        if isinstance(carried, dict):
            for label, edges in carried.items():
                bounds[label] = [float(e) for e in edges]
    series.sort(key=lambda point: point[0])
    return series, bounds


def build_series(
    admission_events: Iterable[AdmissionEvent],
    queue_spans: Iterable[QueueSpan],
    flow_records: Iterable[Any],
    snapshots: Sequence[SnapshotSeries],
    bounds: Mapping[str, Sequence[float]],
    grid: Sequence[int],
    *,
    slo_ns: Mapping[str, float],
    slo_miss_rate: Mapping[str, float],
    attribution: Dict[str, Any],
    alerts: Sequence[Dict[str, Any]],
) -> Dict[str, object]:
    """Assemble the JSON-safe series document of one run, sim or live.

    ``snapshots`` holds one snapshot series per process and ``bounds``
    the histogram bucket bounds per instrument label; ``grid`` is the
    analysis time grid every track is windowed or filled onto.  The
    caller computes ``slo_miss_rate`` and ``attribution`` (see the module
    docstring) and passes the run's burn-rate ``alerts`` in time order.
    """
    events = p_admit_events(admission_events)
    residency = queue_residency(queue_spans)
    return {
        "schema": SERIES_SCHEMA,
        "p_admit": {
            key: fill_on_grid(track, grid) for key, track in events.items()
        },
        "p_admit_events": events,
        "rnl": rnl_tracks_from_snapshots(snapshots, bounds, grid),
        "slo_ns": dict(slo_ns),
        "slo_miss_rate": dict(slo_miss_rate),
        "goodput_gbps": goodput_tracks_from_snapshots(snapshots, grid),
        "queue_residency": {
            f"{node}/qos{qos}": [float(count), float(total), float(peak)]
            for (node, qos), (count, total, peak) in residency.items()
        },
        "flows": flow_summary(flow_records),
        "snapshots": sum(len(series) for series in snapshots),
        "alerts": list(alerts),
        "attribution": attribution,
    }


def build_live_series(
    client_records: Sequence[Sequence[Mapping[str, Any]]],
    server_records: Sequence[Mapping[str, Any]],
    metrics_records: Sequence[Sequence[Mapping[str, Any]]] = (),
    *,
    duration_ns: int,
    slo_ns: Optional[Mapping[str, float]] = None,
) -> Dict[str, object]:
    """The series document of one live run, from its parsed logs.

    ``client_records`` / ``server_records`` are parsed event logs;
    ``metrics_records`` the parsed per-process metrics snapshot logs
    (empty when the run had telemetry off — the snapshot-derived panels
    degrade to empty tracks, everything event-derived still works).  A
    burn-rate alert lands in both the event and the metrics log, so
    each one is kept once.
    """
    # Deferred: repro.analysis sits above repro.obs.
    from repro.analysis.attribution import attribute_live, attribution_block

    all_client = [record for records in client_records for record in records]
    snapshots: List[SnapshotSeries] = []
    bounds: Dict[str, List[float]] = {}
    for records in metrics_records:
        series, carried = snapshot_series_from_records(records)
        if series:
            snapshots.append(series)
        bounds.update(carried)
    alerts: List[Dict[str, Any]] = []
    seen = set()
    logged = chain(all_client, *metrics_records)
    in_time_order = sorted(
        (r for r in logged if r.get("type") == "alert"),
        key=lambda r: int(r.get("time_ns", 0)),
    )
    for alert in in_time_order:
        key = (alert.get("time_ns"), alert.get("qos"), alert.get("state"))
        if key not in seen:
            seen.add(key)
            alerts.append(dict(alert))
    return build_series(
        [
            span_from_record(AdmissionEvent, r)
            for r in all_client
            if r.get("type") == "admission"
        ],
        [
            span_from_record(QueueSpan, r)
            for r in server_records
            if r.get("type") == "queue"
        ],
        all_client,
        snapshots,
        bounds,
        uniform_grid(max(1, duration_ns)),
        slo_ns=slo_ns or {},
        slo_miss_rate=slo_miss_rates_from_spans(all_client),
        attribution=attribution_block(
            attribute_live(client_records, server_records)
        ),
        alerts=alerts,
    )

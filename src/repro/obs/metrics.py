"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Instruments are keyed by ``(metric, qos, node)`` — the label axes every
per-QoS, per-hop question in this reproduction decomposes into.  The
histogram uses fixed log-spaced bucket bounds so observation cost is a
single bisect (no per-sample allocation) and memory is constant no
matter how many RPCs a run issues.  Histograms serve time series and
OpenMetrics scrapes; exact windowed figure statistics come from the
records :class:`repro.rpc.stack.MetricsCollector` retains.

A :class:`MetricsRegistry` can additionally snapshot every instrument
at a configurable *sim-time* cadence (:meth:`install_sampler`), giving
time series of e.g. per-QoS RNL percentiles or downgrade counts over a
run.  Sampling callbacks only read instrument state, so an instrumented
run stays bit-identical to a plain one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator

#: Label identity of one instrument: (metric name, qos, node).
MetricKey = Tuple[str, Optional[int], Optional[str]]


def exponential_bounds(
    lo: float = 100.0, hi: float = 1_000_000_000.0, per_decade: int = 8
) -> Tuple[float, ...]:
    """Log-spaced histogram bucket upper bounds, ``lo`` .. ``hi``.

    The defaults span 100 ns to 1 s with 8 buckets per decade — a
    resolution of about 33% per bucket, ample for tail percentiles that
    the paper quotes to two significant figures.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError("need 0 < lo < hi")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    ratio = 10.0 ** (1.0 / per_decade)
    bounds: List[float] = []
    edge = lo
    while edge < hi:
        bounds.append(edge)
        edge *= ratio
    bounds.append(hi)
    return tuple(bounds)


class Counter:
    """A monotonically increasing count (drops, downgrades, issues)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A point-in-time value (queue depth, p_admit)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with interpolated quantiles.

    ``bounds`` are the bucket *upper* edges; one implicit overflow
    bucket catches everything above the last edge.  Quantiles are
    linearly interpolated within the containing bucket and clamped to
    the observed min/max, so they are exact at the extremes and within
    one bucket's relative width everywhere else.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total", "min", "max")

    def __init__(self, name: str, bounds: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.bounds: Tuple[float, ...] = (
            tuple(bounds) if bounds is not None else exponential_bounds()
        )
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Interpolated value at quantile ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        cumulative = 0
        for i, bucket_count in enumerate(self.counts):
            if bucket_count == 0:
                continue
            if cumulative + bucket_count >= target:
                lower = self.bounds[i - 1] if i > 0 else self.min
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                fraction = (target - cumulative) / bucket_count
                return lower + fraction * (upper - lower)
            cumulative += bucket_count
        return self.max  # pragma: no cover - unreachable (target <= count)

    def percentile(self, pctl: float) -> float:
        """Interpolated value at percentile ``pctl`` in [0, 100]."""
        return self.quantile(pctl / 100.0)

    def summary(self) -> Dict[str, float]:
        """The summary shape shared with batch-mode exact statistics."""
        if self.count == 0:
            return {
                "count": 0.0,
                "mean": 0.0,
                "min": 0.0,
                "max": 0.0,
                "p50": 0.0,
                "p90": 0.0,
                "p99": 0.0,
                "p999": 0.0,
            }
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "p999": self.percentile(99.9),
        }

    def bucket_counts(self) -> List[int]:
        """A copy of the cumulative bucket counts (overflow bucket last).

        Two snapshots' counts can be subtracted bucket-wise to get the
        histogram of observations *between* the snapshots — the basis of
        the rolling-percentile series in :mod:`repro.obs.series`.
        """
        return list(self.counts)


def _label(key: MetricKey) -> str:
    name, qos, node = key
    tags = []
    if qos is not None:
        tags.append(f"qos={qos}")
    if node is not None:
        tags.append(f"node={node}")
    return f"{name}{{{','.join(tags)}}}" if tags else name


class MetricsRegistry:
    """Get-or-create registry of instruments keyed ``(metric, qos, node)``."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}
        #: Sim-time snapshot series: (sim_now_ns, snapshot dict).
        self.series: List[Tuple[int, Dict[str, object]]] = []

    def counter(
        self, name: str, qos: Optional[int] = None, node: Optional[str] = None
    ) -> Counter:
        key = (name, qos, node)
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(_label(key))
        return inst

    def gauge(
        self, name: str, qos: Optional[int] = None, node: Optional[str] = None
    ) -> Gauge:
        key = (name, qos, node)
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(_label(key))
        return inst

    def histogram(
        self,
        name: str,
        qos: Optional[int] = None,
        node: Optional[str] = None,
        bounds: Optional[Sequence[float]] = None,
    ) -> Histogram:
        key = (name, qos, node)
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(_label(key), bounds)
        return inst

    def snapshot(self, include_buckets: bool = False) -> Dict[str, object]:
        """Flat label -> value view of every instrument, for export.

        With ``include_buckets`` each histogram entry additionally
        carries a ``"buckets"`` list of cumulative bucket counts, so
        consecutive snapshots can be differenced into *windowed*
        histograms (rolling percentiles between sampler ticks).
        """
        out: Dict[str, object] = {}
        for counter in self._counters.values():
            out[counter.name] = counter.value
        for gauge in self._gauges.values():
            out[gauge.name] = gauge.value
        for hist in self._histograms.values():
            entry: Dict[str, object] = dict(hist.summary())
            if include_buckets:
                entry["buckets"] = hist.bucket_counts()
            out[hist.name] = entry
        return out

    def install_sampler(
        self,
        sim: "Simulator",
        cadence_ns: int,
        until_ns: Optional[int] = None,
        include_buckets: bool = False,
    ) -> None:
        """Append a snapshot to :attr:`series` every ``cadence_ns`` of
        sim time, until ``until_ns`` (or forever — the run loop's own
        horizon then bounds it).  Read-only: sampling never perturbs
        simulation results.
        """
        if cadence_ns <= 0:
            raise ValueError("cadence must be positive")

        def _tick() -> None:
            self.series.append((sim.now, self.snapshot(include_buckets)))
            if until_ns is None or sim.now + cadence_ns <= until_ns:
                sim.post(cadence_ns, _tick)

        sim.post(cadence_ns, _tick)

    def all_histogram_bounds(self) -> Dict[str, List[float]]:
        """Bucket bounds per histogram label — the companion metadata a
        snapshot consumer needs to difference bucket counts (the live
        metrics JSONL carries this alongside each snapshot)."""
        return {h.name: list(h.bounds) for h in self._histograms.values()}


# ----------------------------------------------------------------------
# OpenMetrics text exposition
# ----------------------------------------------------------------------
#: Content type an OpenMetrics scrape endpoint must declare.
OPENMETRICS_CONTENT_TYPE = (
    "application/openmetrics-text; version=1.0.0; charset=utf-8"
)

#: Help text for the metric families this reproduction emits; families
#: not listed fall back to the family name itself.
_HELP_TEXTS: Dict[str, str] = {
    "rnl_norm_ns": "Per-MTU-normalized RPC network latency in nanoseconds.",
    "rpc_completed_bytes": "Payload bytes of completed RPCs.",
    "rpc_issued": "Logical RPCs issued, by requested QoS.",
    "rpc_downgraded": "RPCs downgraded below their requested QoS, by requested QoS.",
    "rpc_completed": "Logical RPCs that received a response.",
    "rpc_terminated": "Logical RPCs abandoned (deadline or retry budget).",
    "attempt_latency_ns": "Wall-clock latency of individual RPC attempts.",
    "p_admit": "Current AIMD admit probability per channel QoS.",
    "slo_tracked": "SLO-class logical RPCs resolved (completed or failed).",
    "slo_miss": "SLO-class logical RPCs that missed their latency target.",
    "queue_depth": "Requests currently parked in a server QoS queue.",
    "queue_wait_ns": "Time requests spent queued before dispatch.",
    "server_enqueued": "Requests accepted into a server QoS queue.",
    "server_served": "Requests dispatched and answered by the server.",
    "server_rejected": "Requests tail-dropped at a full QoS queue.",
}


def _escape_label_value(value: str) -> str:
    """OpenMetrics label-value escaping: backslash, quote, newline."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _sanitize_name(name: str) -> str:
    """Restrict a metric family name to the OpenMetrics charset."""
    safe = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )
    if not safe or not (safe[0].isalpha() or safe[0] in "_:"):
        safe = "_" + safe
    return safe


def _render_labels(
    qos: Optional[int], node: Optional[str], extra: str = ""
) -> str:
    parts: List[str] = []
    if qos is not None:
        parts.append(f'qos="{qos}"')
    if node is not None:
        parts.append(f'node="{_escape_label_value(node)}"')
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _fmt_value(value: float) -> str:
    """Shortest faithful decimal; integral floats render without '.0'."""
    if isinstance(value, int):
        return str(value)
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(
    registry: MetricsRegistry, prefix: str = "repro"
) -> str:
    """Render every instrument as OpenMetrics 1.0 text exposition.

    Families are grouped per metric name with ``# TYPE`` / ``# HELP``
    metadata, counters carry the mandated ``_total`` sample suffix,
    histograms expose cumulative ``_bucket{le=...}`` series plus
    ``_count`` / ``_sum``, and the body terminates with ``# EOF``.
    Rendering only reads instrument state, so a scrape can never
    perturb the process being observed.
    """
    lines: List[str] = []

    def _family(name: str, kind: str) -> str:
        fam = _sanitize_name(f"{prefix}_{name}" if prefix else name)
        help_text = _HELP_TEXTS.get(name, name)
        lines.append(f"# TYPE {fam} {kind}")
        lines.append(f"# HELP {fam} {_escape_label_value(help_text)}")
        return fam

    def _sorted_keys(keys: "Sequence[MetricKey]") -> List[MetricKey]:
        return sorted(
            keys,
            key=lambda k: (k[0], k[1] if k[1] is not None else -1, k[2] or ""),
        )

    by_name: Dict[str, List[MetricKey]] = {}
    for key in registry._counters:
        by_name.setdefault(key[0], []).append(key)
    for name in sorted(by_name):
        fam = _family(name, "counter")
        for key in _sorted_keys(by_name[name]):
            labels = _render_labels(key[1], key[2])
            value = registry._counters[key].value
            lines.append(f"{fam}_total{labels} {_fmt_value(value)}")

    by_name = {}
    for key in registry._gauges:
        by_name.setdefault(key[0], []).append(key)
    for name in sorted(by_name):
        fam = _family(name, "gauge")
        for key in _sorted_keys(by_name[name]):
            labels = _render_labels(key[1], key[2])
            value = registry._gauges[key].value
            lines.append(f"{fam}{labels} {_fmt_value(value)}")

    by_name = {}
    for key in registry._histograms:
        by_name.setdefault(key[0], []).append(key)
    for name in sorted(by_name):
        fam = _family(name, "histogram")
        for key in _sorted_keys(by_name[name]):
            hist = registry._histograms[key]
            cumulative = 0
            for edge, count in zip(hist.bounds, hist.counts):
                cumulative += count
                labels = _render_labels(
                    key[1], key[2], extra=f'le="{_fmt_value(edge)}"'
                )
                lines.append(f"{fam}_bucket{labels} {cumulative}")
            labels = _render_labels(key[1], key[2], extra='le="+Inf"')
            lines.append(f"{fam}_bucket{labels} {hist.count}")
            labels = _render_labels(key[1], key[2])
            lines.append(f"{fam}_count{labels} {hist.count}")
            lines.append(f"{fam}_sum{labels} {_fmt_value(hist.total)}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"

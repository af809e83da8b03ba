"""The RPC stack: where Aequitas lives.

Per Figure 6 of the paper, the RPC stack sits between applications and
the transport.  On issue it (1) maps the RPC's priority class to a
requested QoS (Phase 1), (2) runs the admission decision (Phase 2),
possibly downgrading to the scavenger class, and (3) hands the payload
to the per-QoS transport flow.  On completion it measures RNL and feeds
it back into the admission controller for the (destination, QoS) the
RPC actually ran at.

``admission_enabled=False`` gives the "w/o Aequitas" baseline: Phase-1
mapping only, every RPC runs at its requested QoS.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional

from repro.core.admission import AdmissionParams
from repro.core.interface import AdmissionEngine
from repro.core.qos import Priority, map_priority_to_qos
from repro.core.quota import QuotaServer
from repro.core.slo import SLOMap
from repro.net.node import Host
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.runtime import active_registry, active_tracer
from repro.rpc.message import Rpc
from repro.sim.engine import Simulator
from repro.stats.summary import percentile
from repro.transport.base import Message
from repro.transport.reliable import TransportEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

#: Summary shape shared by both collector modes (and Histogram.summary).
_EMPTY_SUMMARY: Dict[str, float] = {
    "count": 0.0,
    "mean": 0.0,
    "min": 0.0,
    "max": 0.0,
    "p50": 0.0,
    "p90": 0.0,
    "p99": 0.0,
    "p999": 0.0,
}

#: Phase-1 alignment as plain ints (the value stamped on packets).
_QOS_OF_PRIORITY: Dict[Priority, int] = {
    priority: int(map_priority_to_qos(priority)) for priority in Priority
}


class MetricsCollector:
    """Accumulates completed RPCs and issue-side counters for analysis.

    One collector is usually shared by every stack in an experiment so
    cluster-wide distributions (the paper's fleet view) fall out
    directly.

    ``streaming=True`` switches to aggregate-only accounting: the
    ``issued`` / ``completed`` :class:`Rpc` lists stay empty (long runs
    issue millions of RPCs; retaining them dominates memory and GC
    time).  Distribution views are served from fixed-bucket
    :class:`~repro.obs.metrics.Histogram` instruments (plus per-QoS
    reservoir samples for the raw-sample accessor), so the *summary
    interface* — :meth:`rnl_percentile`, :meth:`rnl_summary`,
    whole-run :meth:`slo_met_fraction` (pass ``slo_map=`` at
    construction) and :meth:`goodput_fraction` — works identically in
    both modes.  Only *windowed* queries (``since_ns``/``until_ns``
    other than the default) still need the full per-RPC records and
    raise ``RuntimeError`` in streaming mode.  Aggregate counters
    (``issued_count``, ``completed_count``, ``rnl_sum_by_qos``,
    ``completed_by_qos``, byte mixes) are maintained identically in
    both modes, so determinism digests (:mod:`repro.stats.digest`)
    work against either.

    ``registry`` (default: the active :mod:`repro.obs` registry, if
    any) additionally mirrors issue/completion counts and RNL
    distributions into labelled instruments for time-series snapshots.
    """

    #: Per-QoS reservoir capacity in streaming mode.
    RESERVOIR_SIZE = 2048

    def __init__(
        self,
        streaming: bool = False,
        slo_map: Optional[SLOMap] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.streaming = streaming
        self.slo_map = slo_map
        self.registry = registry if registry is not None else active_registry()
        self.completed: List[Rpc] = []
        self.issued: List[Rpc] = []
        self.issued_bytes_by_qos_requested: Dict[int, int] = {}
        self.run_bytes_by_qos: Dict[int, int] = {}
        self.downgrades = 0
        self.terminated = 0
        # Aggregate counters, maintained in both modes.
        self._issued_count = 0
        self.completed_count = 0
        self.completed_by_qos: Dict[int, int] = {}
        self.rnl_sum_by_qos: Dict[int, int] = {}
        self.issued_payload_bytes = 0
        self.completed_payload_bytes = 0
        # Streaming-mode distribution state: per-QoS fixed-bucket
        # histograms of normalized and absolute RNL serve percentiles;
        # reservoirs (Vitter's algorithm R) serve raw-sample views.
        # The reservoir RNG is seeded per collector so sampled
        # distributions are reproducible run to run; it never touches
        # simulation state, so it cannot perturb results.
        self._rnl_hist: Dict[int, Histogram] = {}
        self._abs_rnl_hist: Dict[int, Histogram] = {}
        self._slo_met_bytes_by_qos: Dict[int, int] = {}
        self._rnl_reservoirs: Dict[int, List[float]] = {}
        self._reservoir_seen: Dict[int, int] = {}
        # Fixed seed by design: reservoir sampling must be identical
        # run to run and independent of the workload's seed threading;
        # it only shapes which latencies are *retained*, never touches
        # simulation state (see the comment above).
        self._reservoir_rng = random.Random(0x5EED)  # simlint: ignore[SIM013]
        # Optional live hooks (used by experiments to track outstanding
        # RPCs per destination without post-processing).
        self.on_issue_hook: Optional[Callable[[Rpc], None]] = None
        self.on_complete_hook: Optional[Callable[[Rpc], None]] = None

    @property
    def issued_count(self) -> int:
        return self._issued_count

    def record_issue(self, rpc: Rpc) -> None:
        self._issued_count += 1
        if not self.streaming:
            # Batch (non-streaming) mode deliberately retains every RPC
            # for exact end-of-run stats; streaming mode uses reservoirs.
            self.issued.append(rpc)  # simlint: ignore[SIM010]
        req = rpc.qos_requested if rpc.qos_requested is not None else 0
        qos_run = rpc.qos_run if rpc.qos_run is not None else req
        payload = rpc.payload_bytes
        by_requested = self.issued_bytes_by_qos_requested
        by_requested[req] = by_requested.get(req, 0) + payload
        by_run = self.run_bytes_by_qos
        by_run[qos_run] = by_run.get(qos_run, 0) + payload
        self.issued_payload_bytes += payload
        if rpc.downgraded:
            self.downgrades += 1
        reg = self.registry
        if reg is not None:
            reg.counter("rpc_issued", qos=req).inc()
            if rpc.downgraded:
                reg.counter("rpc_downgraded", qos=req).inc()
        if self.on_issue_hook is not None:
            self.on_issue_hook(rpc)

    def record_completion(self, rpc: Rpc) -> None:
        qos = rpc.qos_run if rpc.qos_run is not None else 0
        rnl_ns = rpc.rnl_ns if rpc.rnl_ns is not None else 0
        self.completed_count += 1
        self.completed_by_qos[qos] = self.completed_by_qos.get(qos, 0) + 1
        self.rnl_sum_by_qos[qos] = self.rnl_sum_by_qos.get(qos, 0) + rnl_ns
        self.completed_payload_bytes += rpc.payload_bytes
        if self.streaming:
            normalized = rnl_ns / rpc.size_mtus
            self._reservoir_add(qos, normalized)
            self._hist_for(self._rnl_hist, "rnl_norm_ns", qos).observe(normalized)
            self._hist_for(self._abs_rnl_hist, "rnl_abs_ns", qos).observe(rnl_ns)
            if self.slo_map is not None:
                req = rpc.qos_requested
                if (
                    req is not None
                    and req == qos
                    and self.slo_map.has_slo(req)
                    and self.slo_map.get(req).is_met(rnl_ns, rpc.size_mtus)
                ):
                    self._slo_met_bytes_by_qos[req] = (
                        self._slo_met_bytes_by_qos.get(req, 0) + rpc.payload_bytes
                    )
        else:
            # Same deliberate batch-mode retention as record_issue.
            self.completed.append(rpc)  # simlint: ignore[SIM010]
        reg = self.registry
        if reg is not None:
            reg.counter("rpc_completed", qos=qos).inc()
            reg.counter("rpc_completed_bytes", qos=qos).inc(rpc.payload_bytes)
            reg.histogram("rnl_norm_ns", qos=qos).observe(rnl_ns / rpc.size_mtus)
        if self.on_complete_hook is not None:
            self.on_complete_hook(rpc)

    def record_termination(self, rpc: Rpc) -> None:
        self.terminated += 1
        if self.registry is not None:
            qos = rpc.qos_run if rpc.qos_run is not None else 0
            self.registry.counter("rpc_terminated", qos=qos).inc()

    def _hist_for(
        self, table: Dict[int, Histogram], name: str, qos: int
    ) -> Histogram:
        hist = table.get(qos)
        if hist is None:
            hist = table[qos] = Histogram(f"{name}{{qos={qos}}}")
        return hist

    def _reservoir_add(self, qos: int, sample: float) -> None:
        """Vitter's algorithm R: uniform fixed-size sample per QoS."""
        reservoir = self._rnl_reservoirs.get(qos)
        if reservoir is None:
            reservoir = self._rnl_reservoirs[qos] = []
            self._reservoir_seen[qos] = 0
        seen = self._reservoir_seen[qos] + 1
        self._reservoir_seen[qos] = seen
        if len(reservoir) < self.RESERVOIR_SIZE:
            reservoir.append(sample)
        else:
            slot = self._reservoir_rng.randrange(seen)
            if slot < self.RESERVOIR_SIZE:
                reservoir[slot] = sample

    def _require_retention(self, what: str) -> None:
        if self.streaming:
            raise RuntimeError(
                f"{what} needs per-RPC records; unavailable with "
                "MetricsCollector(streaming=True)"
            )

    # -- derived views --------------------------------------------------
    def normalized_rnl_ns(self, qos_run: int, since_ns: int = 0) -> List[float]:
        """Per-MTU RNL samples of RPCs that ran at the given QoS.

        In streaming mode this returns the reservoir sample for the
        class (uniform over the whole run; ``since_ns`` windowing is
        unsupported there).
        """
        if self.streaming:
            if since_ns:
                self._require_retention("windowed normalized_rnl_ns")
            return list(self._rnl_reservoirs.get(qos_run, ()))
        return [
            rpc.rnl_ns / rpc.size_mtus
            for rpc in self.completed
            if rpc.qos_run == qos_run
            and rpc.issued_ns >= since_ns
            and rpc.rnl_ns is not None
        ]

    def absolute_rnl_ns(self, qos_run: int, since_ns: int = 0) -> List[int]:
        self._require_retention("absolute_rnl_ns")
        return [
            rpc.rnl_ns
            for rpc in self.completed
            if rpc.qos_run == qos_run
            and rpc.issued_ns >= since_ns
            and rpc.rnl_ns is not None
        ]

    def rnl_percentile(
        self, qos_run: int, pctl: float, normalized: bool = True
    ) -> float:
        """Whole-run RNL percentile for one QoS class, in both modes.

        Batch mode computes the exact percentile over retained records;
        streaming mode interpolates it from the fixed-bucket histogram
        (accurate to within one bucket's relative width, ~33% with the
        default 8-per-decade bounds).  NaN when the class saw no
        completions.
        """
        if self.streaming:
            table = self._rnl_hist if normalized else self._abs_rnl_hist
            hist = table.get(qos_run)
            return hist.percentile(pctl) if hist is not None else float("nan")
        if normalized:
            return percentile(self.normalized_rnl_ns(qos_run), pctl)
        return percentile([float(v) for v in self.absolute_rnl_ns(qos_run)], pctl)

    def rnl_summary(self, qos_run: int, normalized: bool = True) -> Dict[str, float]:
        """Count/mean/min/max/p50/p90/p99/p999 of one class's RNL.

        The same key set in both modes (exact in batch, histogram-
        interpolated in streaming), so callers never need to branch on
        the collector mode.
        """
        if self.streaming:
            table = self._rnl_hist if normalized else self._abs_rnl_hist
            hist = table.get(qos_run)
            return hist.summary() if hist is not None else dict(_EMPTY_SUMMARY)
        if normalized:
            samples = self.normalized_rnl_ns(qos_run)
        else:
            samples = [float(v) for v in self.absolute_rnl_ns(qos_run)]
        if not samples:
            return dict(_EMPTY_SUMMARY)
        return {
            "count": float(len(samples)),
            "mean": sum(samples) / len(samples),
            "min": min(samples),
            "max": max(samples),
            "p50": percentile(samples, 50.0),
            "p90": percentile(samples, 90.0),
            "p99": percentile(samples, 99.0),
            "p999": percentile(samples, 99.9),
        }

    def admitted_mix(self, since_ns: int = 0) -> Dict[int, float]:
        """Byte share of traffic per QoS it actually ran at.

        ``since_ns`` restricts to RPCs issued after the warmup so the
        converged mix is not diluted by the AIMD transient.
        """
        return self._mix(since_ns, "qos_run")

    def offered_mix(self, since_ns: int = 0) -> Dict[int, float]:
        """Byte share of traffic per requested QoS."""
        return self._mix(since_ns, "qos_requested")

    def _mix(self, since_ns: int, attr: str) -> Dict[int, float]:
        if self.streaming:
            # Whole-run mixes fall out of the aggregate byte counters.
            if since_ns:
                self._require_retention("windowed traffic mix")
            counters = (
                self.run_bytes_by_qos
                if attr == "qos_run"
                else self.issued_bytes_by_qos_requested
            )
            total = sum(counters.values())
            return {q: b / total for q, b in counters.items()} if total else {}
        by_qos: Dict[int, int] = {}
        for rpc in self.issued:
            if rpc.issued_ns < since_ns:
                continue
            qos = getattr(rpc, attr)
            if qos is None:
                continue
            by_qos[qos] = by_qos.get(qos, 0) + rpc.payload_bytes
        total = sum(by_qos.values())
        return {q: b / total for q, b in by_qos.items()} if total else {}

    def slo_met_fraction(
        self,
        qos: int,
        slo_map: SLOMap,
        since_ns: int = 0,
        until_ns: Optional[int] = None,
    ) -> float:
        """Fraction of traffic (bytes) requested at ``qos`` that completed
        *at that QoS* within the SLO — the Fig-22 success metric: traffic
        meeting SLO targets "from their initially assigned QoS levels".
        Downgraded, terminated, or unfinished RPCs count as misses.

        ``until_ns`` bounds the issue window so RPCs issued too close to
        the end of the run (which could not have finished) are excluded
        from the denominator.

        Streaming mode serves the *whole-run* fraction from byte
        counters: the verdict is evaluated once at each completion
        against the SLO map the collector was constructed with, so
        ``MetricsCollector(streaming=True, slo_map=...)`` is required
        (and the ``slo_map`` argument here is ignored); windowed
        queries still need per-RPC records and raise.
        """
        if self.streaming:
            if since_ns or until_ns is not None:
                self._require_retention("windowed slo_met_fraction")
            if self.slo_map is None:
                raise RuntimeError(
                    "streaming slo_met_fraction needs the SLO map at "
                    "construction: MetricsCollector(streaming=True, slo_map=...)"
                )
            total = self.issued_bytes_by_qos_requested.get(qos, 0)
            if total == 0:
                return 0.0
            return self._slo_met_bytes_by_qos.get(qos, 0) / total
        slo = slo_map.get(qos)
        met = 0
        total = 0
        for rpc in self.issued:
            if rpc.qos_requested != qos or rpc.issued_ns < since_ns:
                continue
            if until_ns is not None and rpc.issued_ns > until_ns:
                continue
            total += rpc.payload_bytes
            if (
                rpc.completed
                and rpc.qos_run == qos
                and rpc.rnl_ns is not None
                and slo.is_met(rpc.rnl_ns, rpc.size_mtus)
            ):
                met += rpc.payload_bytes
        if total == 0:
            return 0.0
        return met / total

    def goodput_fraction(
        self, since_ns: int = 0, until_ns: Optional[int] = None
    ) -> float:
        """Completed / issued payload bytes in the window — the network-
        utilization proxy of Fig 22 (achieved goodput over input arrival
        rate).  Early-terminating schemes (D3/PDQ) lose goodput here.

        Streaming mode serves the whole-run ratio from the payload byte
        counters; windowed queries still need per-RPC records.
        """
        if self.streaming:
            if since_ns or until_ns is not None:
                self._require_retention("windowed goodput_fraction")
            if self.issued_payload_bytes == 0:
                return 0.0
            return self.completed_payload_bytes / self.issued_payload_bytes
        done = 0
        total = 0
        for rpc in self.issued:
            if rpc.issued_ns < since_ns:
                continue
            if until_ns is not None and rpc.issued_ns > until_ns:
                continue
            total += rpc.payload_bytes
            if rpc.completed:
                done += rpc.payload_bytes
        if total == 0:
            return 0.0
        return done / total


class RpcStack:
    """Per-host RPC layer: admission + transport hand-off + measurement."""

    def __init__(
        self,
        sim: Simulator,
        host: Host,
        endpoint: TransportEndpoint,
        slo_map: SLOMap,
        params: AdmissionParams = AdmissionParams(),
        metrics: Optional[MetricsCollector] = None,
        seed: int = 0,
        admission_enabled: bool = True,
        on_downgrade: Optional[Callable[[Rpc], None]] = None,
        deadline_fn: Optional[Callable[[Rpc], int]] = None,
        qos_mapper: Optional[Callable[[Rpc], int]] = None,
        quota_server: Optional[QuotaServer] = None,
        tenant_of: Optional[Callable[[Rpc], Hashable]] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.endpoint = endpoint
        self.slo_map = slo_map
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.on_downgrade = on_downgrade
        self.deadline_fn = deadline_fn
        # Optional override of the Phase-1 priority->QoS mapping.  The
        # production study of Fig 4/24 models *misaligned* deployments
        # where e.g. BE traffic rides QoS_h; pass a mapper to recreate
        # such a cluster, or None for the aligned Phase-1 bijection.
        self.qos_mapper = qos_mapper
        # ``tenant_of`` maps an RPC to its §5.2 quota tenant (default:
        # the source host); the quota gate itself lives in the engine.
        self.tenant_of: Callable[[Rpc], Hashable] = tenant_of or (
            lambda rpc: rpc.src
        )
        # Observability: resolved once at construction (None-off fast
        # path).  The tracer also observes AIMD p_admit adjustments via
        # the channel registry, labelled by the src->dst channel.
        self._tracer: Optional["Tracer"] = active_tracer()
        on_adjust: Optional[Callable[[Hashable, int, float, str, int], None]] = None
        if self._tracer is not None:
            tracer = self._tracer
            host_id = host.host_id

            def _observe_adjust(
                dst: Hashable, qos: int, p_admit: float, kind: str, now_ns: int
            ) -> None:
                tracer.on_admission(f"{host_id}->{dst}", qos, p_admit, kind, now_ns)

            on_adjust = _observe_adjust
        # The transport-neutral admission pipeline (quota gate + AIMD
        # stage); the live runtime drives the identical engine off a
        # wall clock.  Seed derivation is unchanged from the pre-engine
        # ChannelRegistry wiring, so run digests are bit-identical.
        self.admission = AdmissionEngine(
            slo_map,
            params,
            seed=seed * 1_000_003 + host.host_id,
            clock=lambda: sim.now,
            enabled=admission_enabled,
            quota_server=quota_server,
            on_adjust=on_adjust,
        )
        #: Back-compat alias: experiments read per-channel controllers
        #: through ``stack.registry.controller(dst)``.
        self.registry = self.admission.channels

    @property
    def admission_enabled(self) -> bool:
        return self.admission.enabled

    @admission_enabled.setter
    def admission_enabled(self, value: bool) -> None:
        self.admission.enabled = value

    @property
    def quota_server(self) -> Optional[QuotaServer]:
        return self.admission.quota_server

    @quota_server.setter
    def quota_server(self, value: Optional[QuotaServer]) -> None:
        self.admission.quota_server = value

    def issue(self, dst: int, priority: Priority, payload_bytes: int) -> Rpc:
        """Issue one RPC.  Returns the live RPC object (completes later)."""
        now = self.sim.now
        # Rpc's positional order: src, dst, priority, payload_bytes, issued_ns.
        rpc = Rpc(self.host.host_id, dst, priority, payload_bytes, now)
        if self.qos_mapper is not None:
            qos_requested = self.qos_mapper(rpc)
        else:
            qos_requested = _QOS_OF_PRIORITY[priority]
        rpc.qos_requested = qos_requested
        admission = self.admission
        tenant: Optional[Hashable] = None
        if admission.quota_server is not None and self.slo_map.has_slo(qos_requested):
            tenant = self.tenant_of(rpc)
        outcome = admission.decide(dst, qos_requested, payload_bytes, tenant)
        qos_run = rpc.qos_run = outcome.qos_run
        if outcome.downgraded:
            rpc.downgraded = True
            if self.on_downgrade is not None:
                # Explicit downgrade notification back to the application
                # (Algorithm 1 lines 10-11), for quota denials and
                # probabilistic downgrades alike.
                self.on_downgrade(rpc)
        self.metrics.record_issue(rpc)
        tracer = self._tracer
        if tracer is not None:
            tracer.on_rpc_issued(rpc)
        deadline = None
        if self.deadline_fn is not None:
            deadline = now + self.deadline_fn(rpc)
        # Message's positional order: dst, payload_bytes, qos, created_ns,
        # on_complete, deadline_ns, context.
        msg = Message(
            dst, payload_bytes, qos_run, now, self._on_msg_complete, deadline, rpc
        )
        if tracer is not None:
            # Bind the message id to the RPC id before any packet can
            # move: packet-level spans join back through this mapping.
            tracer.on_rpc_message(rpc.rpc_id, msg.msg_id)
        self.endpoint.send_message(msg)
        return rpc

    def _on_msg_complete(self, msg: Message) -> None:
        rpc: Rpc = msg.context
        if msg.terminated:
            # Early termination (D3/PDQ "better never than late"): the
            # RPC never finishes; it stays incomplete in the metrics.
            rpc.terminated = True
            self.metrics.record_termination(rpc)
            if self._tracer is not None:
                self._tracer.on_rpc_terminated(rpc)
            return
        rnl_ns = msg.rnl_ns
        size_mtus = msg.size_mtus
        rpc.completed_ns = msg.completed_ns
        rpc.rnl_ns = rnl_ns
        qos_run = rpc.qos_run if rpc.qos_run is not None else 0
        tracer = self._tracer
        if tracer is not None:
            # AIMD adjustments fired by this completion attribute to
            # this RPC — the "admission feedback" edge of the trace.
            tracer.begin_rpc_completion(rpc.rpc_id)
            try:
                self.admission.complete(rpc.dst, rnl_ns, size_mtus, qos_run)
            finally:
                tracer.end_rpc_completion()
        else:
            self.admission.complete(rpc.dst, rnl_ns, size_mtus, qos_run)
        self.metrics.record_completion(rpc)
        if tracer is not None:
            slo_met: Optional[bool] = None
            req = rpc.qos_requested
            if req is not None and self.slo_map.has_slo(req):
                slo_met = qos_run == req and self.slo_map.get(req).is_met(
                    rnl_ns, size_mtus
                )
            tracer.on_rpc_completed(rpc, slo_met)

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

from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional

from repro.core.admission import AdmissionParams
from repro.core.interface import AdmissionEngine
from repro.core.qos import Priority, map_priority_to_qos
from repro.core.quota import QuotaServer
from repro.core.slo import SLOMap
from repro.net.node import Host
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import active_registry, active_tracer
from repro.rpc.message import Rpc
from repro.sim.engine import Simulator
from repro.transport.base import Message
from repro.transport.reliable import TransportEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.trace import Tracer

#: Phase-1 alignment as plain ints (the value stamped on packets).
_QOS_OF_PRIORITY: Dict[Priority, int] = {
    priority: int(map_priority_to_qos(priority)) for priority in Priority
}


class MetricsCollector:
    """Every RPC a run issued and completed, and the views over them.

    One collector is usually shared by every stack in an experiment so
    cluster-wide distributions (the paper's fleet view) fall out
    directly.  The ``issued`` and ``completed`` :class:`Rpc` lists are
    the only store: every aggregate below is computed from them when
    asked, so whole-run and windowed (``since_ns``/``until_ns``) queries
    are exact and read the same records.

    The :mod:`repro.obs` registry active at construction, if any, also
    receives per-QoS issue, downgrade, completion and termination counts
    and the normalized-RNL histogram: the constant-memory view that
    time series and OpenMetrics scrapes read.
    """

    def __init__(self) -> None:
        self.issued: List[Rpc] = []
        self.completed: List[Rpc] = []
        self.registry: Optional[MetricsRegistry] = active_registry()
        # Optional live hooks (used by experiments to track outstanding
        # RPCs per destination without post-processing).
        self.on_issue_hook: Optional[Callable[[Rpc], None]] = None
        self.on_complete_hook: Optional[Callable[[Rpc], None]] = None

    def record_issue(self, rpc: Rpc) -> None:
        # The records are the store every view reads: retained by design.
        self.issued.append(rpc)  # simlint: ignore[SIM010]
        reg = self.registry
        if reg is not None:
            req = rpc.qos_requested if rpc.qos_requested is not None else 0
            reg.counter("rpc_issued", qos=req).inc()
            if rpc.downgraded:
                reg.counter("rpc_downgraded", qos=req).inc()
        if self.on_issue_hook is not None:
            self.on_issue_hook(rpc)

    def record_completion(self, rpc: Rpc) -> None:
        # Same deliberate retention as record_issue.
        self.completed.append(rpc)  # simlint: ignore[SIM010]
        reg = self.registry
        if reg is not None:
            qos = rpc.qos
            reg.counter("rpc_completed", qos=qos).inc()
            reg.counter("rpc_completed_bytes", qos=qos).inc(rpc.payload_bytes)
            reg.histogram("rnl_norm_ns", qos=qos).observe(
                rpc.rnl_ns / rpc.size_mtus
            )
        if self.on_complete_hook is not None:
            self.on_complete_hook(rpc)

    def record_termination(self, rpc: Rpc) -> None:
        """Mirror an early termination (the RPC is already marked)."""
        if self.registry is not None:
            self.registry.counter("rpc_terminated", qos=rpc.qos).inc()

    # -- derived views --------------------------------------------------
    @property
    def issued_count(self) -> int:
        return len(self.issued)

    @property
    def downgrades(self) -> int:
        return sum(1 for rpc in self.issued if rpc.downgraded)

    @property
    def terminated(self) -> int:
        return sum(1 for rpc in self.issued if rpc.terminated)

    @property
    def run_bytes_by_qos(self) -> Dict[int, int]:
        """Issued payload bytes per QoS the RPC ran at."""
        return self._bytes_by_qos(0, "qos")

    def normalized_rnl_ns(self, qos_run: int, since_ns: int = 0) -> List[float]:
        """Per-MTU RNL samples of RPCs that ran at the given QoS."""
        return [
            rpc.rnl_ns / rpc.size_mtus
            for rpc in self.completed
            if rpc.qos == qos_run and rpc.created_ns >= since_ns
        ]

    def absolute_rnl_ns(self, qos_run: int, since_ns: int = 0) -> List[int]:
        return [
            rpc.rnl_ns
            for rpc in self.completed
            if rpc.qos == qos_run and rpc.created_ns >= since_ns
        ]

    def admitted_mix(self, since_ns: int = 0) -> Dict[int, float]:
        """Byte share of traffic per QoS it actually ran at.

        ``since_ns`` restricts to RPCs issued after the warmup so the
        converged mix is not diluted by the AIMD transient.
        """
        return self._mix(since_ns, "qos")

    def offered_mix(self, since_ns: int = 0) -> Dict[int, float]:
        """Byte share of traffic per requested QoS."""
        return self._mix(since_ns, "qos_requested")

    def _bytes_by_qos(self, since_ns: int, attr: str) -> Dict[int, int]:
        by_qos: Dict[int, int] = {}
        for rpc in self.issued:
            if rpc.created_ns < since_ns:
                continue
            qos = getattr(rpc, attr)
            if qos is None:
                continue
            by_qos[qos] = by_qos.get(qos, 0) + rpc.payload_bytes
        return by_qos

    def _mix(self, since_ns: int, attr: str) -> Dict[int, float]:
        by_qos = self._bytes_by_qos(since_ns, attr)
        total = sum(by_qos.values())
        return {q: b / total for q, b in by_qos.items()} if total else {}

    def slo_met_fraction(
        self,
        qos: int,
        since_ns: int = 0,
        until_ns: Optional[int] = None,
    ) -> float:
        """Fraction of traffic (bytes) requested at ``qos`` whose
        ``slo_met`` verdict is True — the Fig-22 success metric: traffic
        meeting SLO targets "from their initially assigned QoS levels".
        Downgraded, terminated, or unfinished RPCs count as misses.

        ``until_ns`` bounds the issue window so RPCs issued too close to
        the end of the run (which could not have finished) are excluded
        from the denominator.
        """
        met = 0
        total = 0
        for rpc in self.issued:
            if rpc.qos_requested != qos or rpc.created_ns < since_ns:
                continue
            if until_ns is not None and rpc.created_ns > until_ns:
                continue
            total += rpc.payload_bytes
            if rpc.slo_met is True:
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
        """
        done = 0
        total = 0
        for rpc in self.issued:
            if rpc.created_ns < since_ns:
                continue
            if until_ns is not None and rpc.created_ns > until_ns:
                continue
            total += rpc.payload_bytes
            if rpc.completed_ns is not None:
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
        # Every RPC this stack issues shares this one bound method as
        # its transport completion callback (the transport types it
        # over Message; it only ever completes this stack's Rpcs).
        cb: Callable[[Message], None] = self._on_complete  # type: ignore[assignment]
        self._on_complete_cb = cb
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
        """Issue one RPC.  Returns the live RPC object (completes later).

        The RPC is itself the transport message; an empty payload is
        refused before anything is counted, created, drawn or charged.
        """
        now = self.sim.now
        # Rpc's positional order: src, dst, priority, payload_bytes,
        # issued_ns.  It raises on an empty payload before any effect.
        rpc = Rpc(self.host.host_id, dst, priority, payload_bytes, now)
        rpc.on_complete = self._on_complete_cb
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
        rpc.qos = outcome.qos_run
        if outcome.downgraded and self.on_downgrade is not None:
            # Explicit downgrade notification back to the application
            # (Algorithm 1 lines 10-11), for quota denials and
            # probabilistic downgrades alike.
            self.on_downgrade(rpc)
        self.metrics.record_issue(rpc)
        if self._tracer is not None:
            # The RPC is its own span; packet spans join it by msg_id.
            self._tracer.on_rpc_issued(rpc)
        if self.deadline_fn is not None:
            rpc.deadline_ns = now + self.deadline_fn(rpc)
        self.endpoint.send_message(rpc)
        return rpc

    def _on_complete(self, rpc: Rpc) -> None:
        req = rpc.qos_requested
        slo_map = self.slo_map
        if rpc.terminated:
            # Early termination (D3/PDQ "better never than late"): the
            # RPC never finishes; it stays incomplete in the metrics and
            # misses its SLO.
            if req is not None and slo_map.has_slo(req):
                rpc.slo_met = False
            self.metrics.record_termination(rpc)
            return
        rnl_ns = rpc.rnl_ns
        size_mtus = rpc.size_mtus
        qos_run = rpc.qos
        if req is not None and slo_map.has_slo(req):
            # A downgrade is a miss: Fig 22 counts traffic that met its
            # SLO from its initially assigned QoS level.
            rpc.slo_met = qos_run == req and slo_map.get(req).is_met(
                rnl_ns, size_mtus
            )
        tracer = self._tracer
        if tracer is not None:
            # AIMD adjustments fired by this completion attribute to
            # this RPC — the "admission feedback" edge of the trace.
            tracer.begin_rpc_completion(rpc.msg_id)
            try:
                self.admission.complete(rpc.dst, rnl_ns, size_mtus, qos_run)
            finally:
                tracer.end_rpc_completion()
        else:
            self.admission.complete(rpc.dst, rnl_ns, size_mtus, qos_run)
        self.metrics.record_completion(rpc)

"""Transport-neutral admission interface.

The admission stack — the Algorithm-1 AIMD controller, SLO specs, and
channel/quota state — is substrate-independent: it consumes QoS
requests, RPC sizes, and RNL measurements, and emits admit/downgrade
decisions.  This module lifts that pipeline behind explicit ports so
every substrate drives the *identical* code:

* the packet simulator (:mod:`repro.rpc.stack`) feeds it simulated
  nanoseconds from ``Simulator.now``;
* the live asyncio runtime (:mod:`repro.live`) feeds it wall-clock
  nanoseconds from :class:`repro.live.clock.WallClock` and real socket
  round-trip times.

Two abstractions:

:class:`ClockSource`
    Where "now" comes from.  A structural protocol (``now_ns() ->
    int``); :func:`as_now_fn` also accepts a bare ``Callable[[], int]``
    so existing call sites keep working.

:class:`AdmissionEngine`
    The Phase-2 pipeline as one object: the optional §5.2 quota gate,
    then the per-(destination, QoS) probabilistic AIMD stage, plus the
    completion-feedback path.  One engine corresponds to one sending
    endpoint (a simulated host's RPC stack, or one live client
    process); per-destination state lives in its
    :class:`~repro.core.channel.ChannelRegistry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

from repro.core.admission import AdmissionParams
from repro.core.channel import ChannelRegistry
from repro.core.clocks import ClockLike, ClockSource, FixedClock, as_now_fn
from repro.core.quota import QuotaServer, QuotaVerdict
from repro.core.slo import SLOMap


@dataclass(frozen=True)
class AdmissionOutcome:
    """The engine's verdict on one RPC issue.

    ``quota`` records which branch of the §5.2 gate applied ("reserved",
    "spare", "denied") or ``None`` when no quota server is configured
    or the requested level carries no SLO.
    """

    qos_requested: int
    qos_run: int
    downgraded: bool
    quota: Optional[str] = None


class AdmissionEngine:
    """Phase-2 admission as a transport-neutral pipeline.

    The decision path replicates the RPC stack's issue-time semantics
    exactly (quota gate first, then the probabilistic AIMD stage), so
    lifting it out of :class:`repro.rpc.stack.RpcStack` is behavior-
    and digest-preserving: the same seeds produce the same coin flips.

    Args:
        slo_map: per-QoS SLO targets (the scavenger class has none).
        params: Algorithm-1 tunables.
        seed: seed for the per-destination admission RNG substreams.
        clock: time source for AIMD increment windows (sim or wall).
        enabled: ``False`` gives the "w/o Aequitas" passthrough.
        quota_server: optional §5.2 per-tenant quota gate.
        on_adjust: optional AIMD observer, called as
            ``(dst, qos, p_admit, kind, now_ns)`` — read-only.
    """

    def __init__(
        self,
        slo_map: SLOMap,
        params: AdmissionParams = AdmissionParams(),
        *,
        seed: int = 0,
        clock: Optional[ClockLike] = None,
        enabled: bool = True,
        quota_server: Optional[QuotaServer] = None,
        on_adjust: Optional[Callable[[Hashable, int, float, str, int], None]] = None,
    ) -> None:
        self._slo_map = slo_map
        self.enabled = enabled
        self.quota_server = quota_server
        # Every verdict the configured QoS plane can produce, built once
        # and shared: outcomes are immutable, so issuing an RPC allocates
        # none.
        self._lowest = slo_map.qos_config.lowest
        self._outcomes: Dict[Tuple[int, int, Optional[str]], AdmissionOutcome] = {
            (level, qos_run, quota): AdmissionOutcome(
                level, qos_run, qos_run != level, quota
            )
            for level in range(slo_map.qos_config.num_levels)
            for qos_run in (level, self._lowest)
            for quota in (None, *(verdict.value for verdict in QuotaVerdict))
        }
        #: Per-destination controllers; exposed so substrates that need
        #: raw controller access (experiments, tests) keep it.
        self.channels = ChannelRegistry(
            slo_map,
            params,
            seed=seed,
            clock=as_now_fn(clock),
            on_adjust=on_adjust,
        )

    @property
    def slo_map(self) -> SLOMap:
        return self._slo_map

    def decide(
        self,
        dst: Hashable,
        qos_requested: int,
        payload_bytes: int = 0,
        tenant: Optional[Hashable] = None,
    ) -> AdmissionOutcome:
        """Issue-time decision for one RPC bound for ``dst``."""
        quota: Optional[str] = None
        quota_server = self.quota_server
        if quota_server is not None and self._slo_map.has_slo(qos_requested):
            quota = quota_server.check_admit(tenant, qos_requested, payload_bytes).value
        qos_run = qos_requested
        if quota == "denied":
            qos_run = self._lowest
        elif quota != "reserved" and self.enabled:
            # ("reserved" bypasses the probabilistic stage: the operator
            # provisioned for the tenant's guarantee.)
            qos_run = self.channels.controller(dst).admit_qos(qos_requested)
        outcome = self._outcomes.get((qos_requested, qos_run, quota))
        if outcome is None:  # a level outside the configured QoS plane
            outcome = AdmissionOutcome(
                qos_requested, qos_run, qos_run != qos_requested, quota
            )
        return outcome

    def complete(
        self, dst: Hashable, rnl_ns: int, size_mtus: int, qos_run: int
    ) -> None:
        """Feed one completed RPC's RNL measurement back into AIMD."""
        if self.enabled:
            self.channels.controller(dst).on_rpc_completion(rnl_ns, size_mtus, qos_run)

    def p_admit(self, dst: Hashable, qos: int) -> float:
        """Current admit probability for one (destination, QoS)."""
        return self.channels.controller(dst).p_admit(qos)

    def snapshot(self) -> Dict[Hashable, Dict[int, float]]:
        """``dst -> {qos: p_admit}`` across every instantiated channel."""
        return {
            dst: {level: ctrl.p_admit(level) for level in self._slo_map.levels()}
            for dst, ctrl in self.channels.controllers().items()
        }


__all__ = [
    "AdmissionEngine",
    "AdmissionOutcome",
    "ClockLike",
    "ClockSource",
    "FixedClock",
    "as_now_fn",
]

"""The shared demo-topology spec: one server, N clients, mixed QoS.

Both worlds consume this one dataclass:

* :mod:`repro.live.runtime` spawns one server process plus ``clients``
  client processes over real sockets;
* :mod:`repro.live.simref` runs the identical arrival pattern through
  the discrete-event simulator.

Both sides derive their stochastic streams from the same
:func:`repro.sim.rng.substream` labels (:meth:`arrival_label`,
:meth:`admission_seed`), so the offered traffic pattern and the
admission coin-flip sequences are *identical* — the only thing that
differs between sim and live is the time domain the delays come from
(virtual queue model versus real sockets and a real event loop), which
is exactly what the convergence gate is designed to tolerate.

The topology is a deliberate single-bottleneck: the server is one
serial service unit with strict-priority (SLO class first) queueing,
so with ``overload_factor > 1`` the SLO class alone over-subscribes it
and AIMD must throttle ``p_admit`` toward ``capacity / offered`` — the
edge-based Aequitas claim the live mode exists to demonstrate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict

from repro.core.admission import AdmissionParams
from repro.core.qos import QoSConfig, WEIGHTS_2_QOS
from repro.core.slo import SLO, SLOMap
from repro.net.packet import MTU_BYTES
from repro.sim.rng import substream

#: QoS indices of the 2-level live deployment (index 0 is highest).
QOS_SLO = 0
QOS_SCAVENGER = 1


@dataclass(frozen=True)
class LiveWorkload:
    """Everything a run needs, in one picklable spec."""

    clients: int = 3
    duration_s: float = 10.0
    seed: int = 7
    #: Offered SLO-class load divided by server capacity (>1 = overload).
    overload_factor: float = 1.8
    #: Server service time per MTU of request payload, in milliseconds.
    service_ms_per_mtu: float = 2.5
    #: Extra scavenger-class load, as a fraction of server capacity.
    scavenger_fraction: float = 0.25
    #: Request payload (1 MTU by default so rates map 1:1 to capacity).
    payload_bytes: int = MTU_BYTES
    #: Per-MTU RNL target; queueing delay is what blows through it.
    slo_ms: float = 25.0
    #: A p90 SLO keeps the additive-increase window at 10x the target
    #: (250 ms) so AIMD visibly recovers from the initial overshoot
    #: within a ~10 s demo run; the paper's p99/p99.9 windows need
    #: minutes-long runs to show the same equilibrium.
    slo_percentile: float = 90.0
    #: Algorithm-1 tunables (paper defaults).
    params: AdmissionParams = field(default_factory=AdmissionParams)

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.duration_s <= 0:
            raise ValueError("duration must be positive")
        if self.overload_factor <= 0:
            raise ValueError("overload factor must be positive")
        if self.service_ms_per_mtu <= 0:
            raise ValueError("service time must be positive")

    # -- derived geometry ----------------------------------------------
    @property
    def size_mtus(self) -> int:
        return max(1, math.ceil(self.payload_bytes / MTU_BYTES))

    @property
    def service_ns_per_mtu(self) -> int:
        return int(self.service_ms_per_mtu * 1e6)

    @property
    def capacity_rps(self) -> float:
        """Requests/second the serial server sustains at this size."""
        return 1e9 / (self.service_ns_per_mtu * self.size_mtus)

    @property
    def slo_rate_per_client_rps(self) -> float:
        """Offered SLO-class rate per client (Poisson mean)."""
        return self.overload_factor * self.capacity_rps / self.clients

    @property
    def scavenger_rate_per_client_rps(self) -> float:
        return self.scavenger_fraction * self.capacity_rps / self.clients

    @property
    def duration_ns(self) -> int:
        return int(self.duration_s * 1e9)

    @property
    def queue_limit(self) -> int:
        """Per-QoS server queue bound (tail drop past it).

        Sized to roughly twice the work the SLO budget covers, so a
        request that *is* queued can still plausibly meet its SLO and
        the reject path — not a silent latency cliff — absorbs the
        overload.
        """
        budget_ns = int(self.slo_ms * 1e6) * self.size_mtus
        service_ns = self.service_ns_per_mtu * self.size_mtus
        return max(4, round(2 * budget_ns / service_ns))

    def rates_rps(self) -> Dict[int, float]:
        """Per-client offered rate by QoS level."""
        rates = {QOS_SLO: self.slo_rate_per_client_rps}
        if self.scavenger_fraction > 0:
            rates[QOS_SCAVENGER] = self.scavenger_rate_per_client_rps
        return rates

    # -- admission-stack construction ----------------------------------
    def slo_map(self) -> SLOMap:
        return SLOMap(
            {QOS_SLO: SLO(int(self.slo_ms * 1e6), self.slo_percentile)},
            QoSConfig(weights=WEIGHTS_2_QOS),
        )

    # -- shared stochastic streams -------------------------------------
    def client_id(self, index: int) -> str:
        return f"c{index}"

    @property
    def server_key(self) -> str:
        """The destination key clients use for their one channel."""
        return "srv"

    def admission_seed(self, index: int) -> int:
        """Seed of one client's admission engine (sim and live alike)."""
        return self.seed * 1_000_003 + index

    def arrival_label(self, index: int, qos: int) -> str:
        return f"live:arrivals:{self.client_id(index)}:q{qos}"

    def arrival_rng(self, index: int, qos: int) -> random.Random:
        return substream(self.seed, self.arrival_label(index, qos))


__all__ = ["LiveWorkload", "QOS_SCAVENGER", "QOS_SLO"]

"""Aequitas core: QoS model, SLOs, and the Algorithm-1 admission controller."""

from repro.core.admission import (
    AdmissionController,
    AdmissionParams,
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_FLOOR,
)
from repro.core.channel import ChannelRegistry
from repro.core.clocks import ClockLike, ClockSource, FixedClock, as_now_fn
from repro.core.interface import AdmissionEngine, AdmissionOutcome
from repro.core.quota import QuotaReservation, QuotaServer
from repro.core.qos import (
    Priority,
    QoS,
    QoSConfig,
    WEIGHTS_2_QOS,
    WEIGHTS_3_QOS,
    WEIGHTS_3_QOS_HEAVY,
    map_priority_to_qos,
)
from repro.core.slo import SLO, SLOMap

__all__ = [
    "AdmissionController",
    "AdmissionEngine",
    "AdmissionOutcome",
    "AdmissionParams",
    "ChannelRegistry",
    "ClockLike",
    "ClockSource",
    "FixedClock",
    "as_now_fn",
    "DEFAULT_ALPHA",
    "DEFAULT_BETA",
    "DEFAULT_FLOOR",
    "Priority",
    "QuotaReservation",
    "QuotaServer",
    "QoS",
    "QoSConfig",
    "SLO",
    "SLOMap",
    "WEIGHTS_2_QOS",
    "WEIGHTS_3_QOS",
    "WEIGHTS_3_QOS_HEAVY",
    "map_priority_to_qos",
]

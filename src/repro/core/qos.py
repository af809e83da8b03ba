"""QoS classes, RPC priority classes, and the bijective mapping between them.

The paper (Section 5, Phase 1) maps the three application priority classes
at RPC granularity onto three WFQ-served network QoS classes:

    PC (performance-critical)  -> QoS_h  (high weight)
    NC (non-critical)          -> QoS_m  (medium weight)
    BE (best-effort)           -> QoS_l  (low weight, scavenger)

The design "organically extends to larger numbers of QoS priority
classes", so the model here is parameterized on the number of levels;
the canonical 3-level instance is exposed as module constants.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class Priority(enum.IntEnum):
    """Application-level RPC priority class (lower value = more critical)."""

    PC = 0
    NC = 1
    BE = 2


class QoS(enum.IntEnum):
    """Network QoS level (lower value = higher WFQ weight).

    Matches the paper's QoS_h / QoS_m / QoS_l naming.  The integer value
    doubles as the WFQ class index inside switches, and is what gets
    encoded in the packet "DSCP" field in this reproduction.
    """

    HIGH = 0
    MEDIUM = 1
    LOW = 2


#: Canonical 3-level WFQ weight vectors used throughout the evaluation.
WEIGHTS_3_QOS: Tuple[int, ...] = (8, 4, 1)
WEIGHTS_3_QOS_HEAVY: Tuple[int, ...] = (50, 4, 1)
WEIGHTS_2_QOS: Tuple[int, ...] = (4, 1)

_PRIORITY_TO_QOS = {
    Priority.PC: QoS.HIGH,
    Priority.NC: QoS.MEDIUM,
    Priority.BE: QoS.LOW,
}


def map_priority_to_qos(priority: Priority) -> QoS:
    """Phase-1 alignment: the bijective PC/NC/BE -> QoS_h/m/l mapping."""
    return _PRIORITY_TO_QOS[priority]


@dataclass(frozen=True)
class QoSConfig:
    """Static configuration of the QoS plane.

    Attributes:
        weights: WFQ weight per level, highest priority first.  Length
            defines the number of QoS levels N.  The lowest level is the
            scavenger class: downgraded and best-effort traffic runs there
            and it carries no SLO.
    """

    weights: Tuple[int, ...] = WEIGHTS_3_QOS

    def __post_init__(self) -> None:
        if len(self.weights) < 2:
            raise ValueError("need at least two QoS levels (one SLO class + scavenger)")
        if any(w <= 0 for w in self.weights):
            raise ValueError("WFQ weights must be positive")
        if list(self.weights) != sorted(self.weights, reverse=True):
            raise ValueError("weights must be non-increasing (index 0 is highest QoS)")

    @property
    def num_levels(self) -> int:
        return len(self.weights)

    @property
    def lowest(self) -> int:
        """Index of the scavenger class (downgrade destination)."""
        return self.num_levels - 1

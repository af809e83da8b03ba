"""Discrete-event simulation kernel (clock, event heap, seeded RNG,
runtime invariant checking)."""

from repro.sim.engine import (
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    Event,
    Simulator,
    ns_from_ms,
    ns_from_us,
)
from repro.sim.rng import make_rng, poisson_interarrivals_ns, substream
from repro.sim.sanitize import (
    SANITIZE_ENV_VAR,
    SanitizerError,
    sanitize_enabled,
)

__all__ = [
    "Event",
    "SANITIZE_ENV_VAR",
    "SanitizerError",
    "Simulator",
    "sanitize_enabled",
    "NS_PER_US",
    "NS_PER_MS",
    "NS_PER_SEC",
    "ns_from_us",
    "ns_from_ms",
    "make_rng",
    "substream",
    "poisson_interarrivals_ns",
]

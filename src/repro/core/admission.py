"""Aequitas distributed admission control (Algorithm 1 of the paper).

Each RPC channel keeps an *admit probability* per (destination, QoS).
On issue, an RPC requesting an SLO-carrying QoS is admitted with that
probability and downgraded to the scavenger class otherwise.  On
completion, the measured RNL drives AIMD:

* additive increase (``alpha``) when the size-normalized RNL is within
  target, clocked at most once per ``increment_window`` so the increase
  rate is agnostic to how many RPCs the channel sends (fairness);
* multiplicative decrease (``beta * size_mtus``) on an SLO miss, so a
  10-MTU RPC missing its SLO behaves like ten 1-MTU misses ("RPC-level
  clocking"), with a floor that prevents starvation — if p_admit hit
  zero, no RPCs would run on the requested QoS and no measurements would
  exist to ever raise it again.

The controller is substrate-independent: it consumes RPC sizes and RNL
measurements in nanoseconds and emits admit/downgrade decisions, so the
identical code drives the packet simulator, the examples, and the
property-based tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.clocks import ClockLike, as_now_fn
from repro.core.qos import Priority, map_priority_to_qos
from repro.core.slo import SLOMap
from repro.sim.sanitize import check_probability, sanitize_enabled

# Paper defaults (Section 6.1): alpha = 0.01 and beta = 0.01 per MTU.
DEFAULT_ALPHA = 0.01
DEFAULT_BETA = 0.01
DEFAULT_FLOOR = 0.01


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of admitting one RPC.

    ``qos_run`` is the QoS the RPC actually runs at; ``downgraded`` is the
    explicit notification the application receives (Algorithm 1 lines
    10-11) — it sees network overload directly and may reshuffle which of
    its RPCs it issues at higher QoS.
    """

    qos_requested: int
    qos_run: int
    downgraded: bool


@dataclass
class _QoSState:
    """Mutable per-(dst, QoS) admission state."""

    p_admit: float = 1.0
    t_last_increase_ns: int = 0
    increases: int = 0
    decreases: int = 0


@dataclass(frozen=True)
class AdmissionParams:
    """Tunables of Algorithm 1 (see Appendix C for the trade-off).

    Attributes:
        alpha: additive increment applied to p_admit per increment window.
        beta: multiplicative decrement *per MTU* applied on an SLO miss.
        floor: lower bound on p_admit (starvation avoidance).
    """

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    floor: float = DEFAULT_FLOOR

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not 0 < self.beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        if not 0 <= self.floor < 1:
            raise ValueError("floor must be in [0, 1)")


class AdmissionController:
    """Algorithm 1: per-channel probabilistic QoS admission with AIMD.

    One controller instance corresponds to one RPC channel (src-host,
    dst-host pair); state is kept per QoS level.  There is no
    coordination between controllers — convergence to a fair, SLO-
    compliant QoS-mix is an emergent property of the AIMD dynamics
    (evaluated in Sections 6.3 and 6.5).
    """

    def __init__(
        self,
        slo_map: SLOMap,
        params: AdmissionParams = AdmissionParams(),
        rng: Optional[random.Random] = None,
        clock: Optional[ClockLike] = None,
        sanitize: Optional[bool] = None,
    ):
        self._slo_map = slo_map
        self._lowest = slo_map.qos_config.lowest
        self._params = params
        # Fixed-seed fallback: keeps a bare AdmissionEngine(...) fully
        # deterministic; sweep runs always inject the per-point stream.
        self._rng = (
            rng if rng is not None else random.Random(0)  # simlint: ignore[SIM013]
        )
        # Transport-neutral: the clock may be a bare callable (the
        # simulator's `lambda: sim.now`) or any ClockSource (the live
        # runtime's WallClock); either way it is read as `()->int`.
        now_fn = as_now_fn(clock)
        self._clock = now_fn if now_fn is not None else (lambda: 0)
        self._state: Dict[int, _QoSState] = {
            level: _QoSState() for level in slo_map.levels()
        }
        self._trace: Optional[List[Tuple[int, int, float]]] = None
        self._sanitize = sanitize_enabled(sanitize)
        #: Optional observer of AIMD adjustments, called as
        #: ``on_adjust(qos, p_admit, kind, now_ns)`` with kind
        #: ``"increase"``/``"decrease"`` — read-only with respect to the
        #: algorithm, wired by :class:`~repro.core.channel.ChannelRegistry`
        #: when observability tracing is on.
        self.on_adjust: Optional[Callable[[int, float, str, int], None]] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def params(self) -> AdmissionParams:
        return self._params

    @property
    def slo_map(self) -> SLOMap:
        return self._slo_map

    def p_admit(self, level: int) -> float:
        """Current admit probability for an SLO-carrying QoS level."""
        return self._state[level].p_admit

    def state_counters(self, level: int) -> Tuple[int, int]:
        """(additive increases, multiplicative decreases) applied so far."""
        state = self._state[level]
        return state.increases, state.decreases

    def enable_trace(self) -> None:
        """Record (time_ns, qos, p_admit) after every adjustment."""
        self._trace = []

    @property
    def trace(self) -> List[Tuple[int, int, float]]:
        if self._trace is None:
            raise RuntimeError("call enable_trace() before reading the trace")
        return self._trace

    # ------------------------------------------------------------------
    # Algorithm 1: On RPC Issue
    # ------------------------------------------------------------------
    def on_rpc_issue(self, priority: Priority) -> AdmissionDecision:
        """Decide the QoS an RPC runs at (Algorithm 1 lines 5-12)."""
        qos_requested = int(map_priority_to_qos(priority))
        return self.on_rpc_issue_qos(qos_requested)

    def on_rpc_issue_qos(self, qos_requested: int) -> AdmissionDecision:
        """Admission decision for an explicitly requested QoS level."""
        qos_run = self.admit_qos(qos_requested)
        return AdmissionDecision(qos_requested, qos_run, qos_run != qos_requested)

    def admit_qos(self, qos_requested: int) -> int:
        """The QoS level an RPC requesting ``qos_requested`` runs at.

        The one admit/downgrade coin flip (lines 6-11).  Requests for
        the scavenger class (or any level with no SLO) are always
        admitted — there is nothing to protect there — and draw nothing.
        """
        state = self._state.get(qos_requested)  # one entry per SLO level
        if state is None:
            return qos_requested
        if self._sanitize:
            check_probability(
                state.p_admit,
                where="on_rpc_issue",
                provenance={"qos": qos_requested},
            )
        if self._rng.random() <= state.p_admit:
            return qos_requested
        return self._lowest

    # ------------------------------------------------------------------
    # Algorithm 1: On RPC Completion
    # ------------------------------------------------------------------
    def on_rpc_completion(self, rnl_ns: int, size_mtus: int, qos_run: int) -> None:
        """Feed one RNL measurement back into AIMD (lines 13-20).

        Measurements are only meaningful for SLO-carrying levels; RNL of
        RPCs that ran on the scavenger class is ignored (it has no target
        and its latency says nothing about admitted-traffic health).
        """
        if not self._slo_map.has_slo(qos_run):
            return
        slo = self._slo_map.get(qos_run)
        state = self._state[qos_run]
        now = self._clock()
        if slo.is_met(rnl_ns, size_mtus):
            # Additive increase, at most once per increment window so the
            # growth rate is independent of the channel's RPC rate.
            if now - state.t_last_increase_ns > slo.increment_window_ns:
                state.p_admit = min(state.p_admit + self._params.alpha, 1.0)
                state.t_last_increase_ns = now
                state.increases += 1
                if self.on_adjust is not None:
                    self.on_adjust(qos_run, state.p_admit, "increase", now)
        else:
            # Multiplicative decrease, proportional to RPC size in MTUs:
            # a large RPC missing its SLO counts as many unit misses.
            state.p_admit = max(
                state.p_admit - self._params.beta * max(1, size_mtus),
                self._params.floor,
            )
            state.decreases += 1
            if self.on_adjust is not None:
                self.on_adjust(qos_run, state.p_admit, "decrease", now)
        if self._sanitize:
            check_probability(
                state.p_admit,
                where="on_rpc_completion",
                provenance={"qos": qos_run, "rnl_ns": rnl_ns, "size_mtus": size_mtus},
            )
        if self._trace is not None:
            # Opt-in debug trace (off by default), bounded by run length.
            self._trace.append((now, qos_run, state.p_admit))  # simlint: ignore[SIM010]

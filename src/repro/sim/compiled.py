"""Compiled (C extension) simulator kernel — the ``compiled`` backend.

:class:`CompiledSimulator` is a thin facade over the ``EventCore`` type
from ``_ckernel.c``: the (time, seq) heap, the callback slot pool, the
clock, and the run loop all live in C.  The facade keeps the public
:class:`~repro.sim.engine.Simulator` API (including cancellable
:class:`~repro.sim.engine.Event` handles, which stay ordinary Python
objects the C loop inspects) and delegates every hot operation.

Availability is gated by :mod:`repro.sim._cbuild`: the extension is
compiled on demand with the system C compiler, and hosts without a
toolchain get :class:`repro.sim.backend.BackendUnavailable` — callers
(and the test suite) fall back to the always-available pure kernels.

Semantics are pinned by the kernel contract in :mod:`repro.sim.engine`
and enforced bit-identically by ``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Protocol, Tuple, Type

from repro.sim._cbuild import load_ckernel
from repro.sim.engine import Event, Simulator
from repro.sim.sanitize import SanitizerError

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profile import SimProfiler


class _EventCore(Protocol):
    """Typed view of the C ``EventCore`` object."""

    now: int
    events_processed: int
    seq: int
    pending: int

    def post_at(self, time_ns: int, fn: Callable[..., None], *args: Any) -> None: ...

    def push_handle(self, time_ns: int, seq: int, event: Event) -> None: ...

    def alloc_seq(self) -> int: ...

    def run(
        self,
        until: Optional[int],
        max_events: Optional[int],
        timed: Optional[Callable[[Callable[..., None], Tuple[Any, ...]], None]],
        sanitize_cb: Optional[Callable[[int, int, Callable[..., None]], None]],
    ) -> None: ...

    def step(
        self,
        sanitize_cb: Optional[Callable[[int, int, Callable[..., None]], None]],
    ) -> bool: ...

    def peek_time(self) -> Optional[int]: ...

    def stop(self) -> None: ...


class CompiledSimulator(Simulator):
    """The :class:`Simulator` API over the C event core.

    The clock and counters live in the core, so the inherited ``_now``/
    ``_events_processed`` attributes are unused; every accessor that
    touches them is overridden to read the core instead.
    """

    def __init__(
        self,
        sanitize: Optional[bool] = None,
        profiler: Optional["SimProfiler"] = None,
    ) -> None:
        super().__init__(sanitize=sanitize, profiler=profiler)
        self._core: _EventCore = load_ckernel().EventCore()

    # ------------------------------------------------------------------
    # clock / counters (kernel contract rule 6)
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._core.now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (excludes cancelled events)."""
        return self._core.events_processed

    def _sanitize_pop(self, time: int, seq: int, fn: Callable[..., None]) -> None:
        """Clock-monotonicity check against the core's clock."""
        now = self._core.now
        if time < now:
            raise SanitizerError(
                "clock-monotonicity",
                "event fires in the past",
                {
                    "callback": getattr(fn, "__qualname__", repr(fn)),
                    "event_time_ns": time,
                    "seq": seq,
                    "now_ns": now,
                },
            )

    # ------------------------------------------------------------------
    # scheduling API
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """See :meth:`Simulator.schedule`; returns a cancellable handle."""
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns}ns)")
        core = self._core
        time = core.now + delay_ns
        seq = core.alloc_seq()
        event = Event(time, seq, fn, args)
        core.push_handle(time, seq, event)
        return event

    def post(self, delay_ns: int, fn: Callable[..., None], *args: Any) -> None:
        """See :meth:`Simulator.post`; shares the seq counter with schedule."""
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns}ns)")
        core = self._core
        core.post_at(core.now + delay_ns, fn, *args)

    #: Contract rule 7 as written: no run storage in the C core.
    post_run = Simulator._post_run_loop

    def schedule_at(self, time_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """See :meth:`Simulator.schedule_at` (contract rule 5)."""
        now = self._core.now
        if time_ns < now:
            raise ValueError(
                f"cannot schedule at absolute time {time_ns}ns: "
                f"it is in the past (now={now}ns)"
            )
        return self.schedule(time_ns - now, fn, *args)

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True
        self._core.stop()

    # ------------------------------------------------------------------
    # kernel paths (contract rules 2-4) — all delegated to C
    # ------------------------------------------------------------------
    def peek_time(self) -> Optional[int]:
        """See :meth:`Simulator.peek_time`; discards cancelled heads."""
        return self._core.peek_time()

    def step(self) -> bool:
        """See :meth:`Simulator.step`."""
        return self._core.step(self._sanitize_pop if self.sanitize else None)

    def _run_core(
        self,
        until: Optional[int],
        max_events: Optional[int],
        timed: Optional[Callable[[Callable[..., None], Tuple[Any, ...]], None]],
    ) -> None:
        self._core.run(
            until,
            max_events,
            timed,
            self._sanitize_pop if self.sanitize else None,
        )


def compiled_simulator_class() -> Type[Simulator]:
    """Build/load the extension and return :class:`CompiledSimulator`.

    Raises :class:`repro.sim.backend.BackendUnavailable` when the C core
    cannot be provided on this host.
    """
    load_ckernel()
    return CompiledSimulator

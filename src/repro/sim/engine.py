"""Discrete-event simulation kernel.

The kernel is deliberately small: an event queue keyed by an integer-
nanosecond timestamp plus a monotonically increasing sequence number (so
ties are FIFO and runs are deterministic), a clock, and a ``run`` loop.
Everything else in the simulator — links, switches, transports, RPC
stacks — is built by scheduling plain callables.

Time is kept in integer nanoseconds throughout the code base.  Floating
point time is a classic source of nondeterminism in event simulators
(two events that should tie end up ordered by rounding noise); integers
make every run bit-reproducible for a given seed.

Kernel contract
---------------

:class:`Simulator` satisfies one documented semantics; the
characterization tests in ``tests/test_sim_engine.py`` pin it down:

1. **Ordering.**  Events fire in ascending ``(time, seq)`` order.
   ``seq`` is one shared counter across :meth:`Simulator.schedule`,
   :meth:`Simulator.post`, and :meth:`Simulator.schedule_at`, so
   same-timestamp events fire in submission order regardless of which
   API queued them.
2. **Lazy cancellation.**  :meth:`Event.cancel` marks the handle; the
   queue entry is physically discarded whenever :meth:`Simulator.step`,
   :meth:`Simulator.run` or :meth:`Simulator.peek_time` next encounters
   it at the queue head.  A cancelled event never fires, never advances
   the clock, and never counts toward ``events_processed`` or a
   ``max_events`` budget.
3. **Horizon.**  ``run(until=T)`` fires events with ``time <= T``.  The
   clock advances to ``T`` exactly when the run covered the horizon —
   by draining the queue or by meeting a strictly-later event (which
   stays queued).  Exits via :meth:`Simulator.stop` or ``max_events``
   leave the clock at the last *fired* event so callers observe when
   the run was interrupted, not a silently jumped clock.  The clock
   never moves backwards: a ``T`` earlier than ``now`` fires nothing
   and leaves the clock where it is.
4. **Budget.**  ``max_events=N`` fires at most ``N`` events; a run
   interrupted by the budget leaves every unfired (and every cancelled-
   but-unvisited) entry in the queue.
5. **Scheduling into the past is an error.**  Relative delays must be
   ``>= 0``; absolute timestamps must be ``>= now``.  The error message
   reports what the caller passed (:meth:`Simulator.schedule_at` names
   the absolute timestamp and the current clock, not the internal
   relative delay).
6. **Counters.**  ``events_processed`` counts fired events only, and is
   folded in on every exit path — including an exception escaping a
   callback — so interrupted runs stay accountable.
7. **Runs.**  ``post_run(fn, entries)`` *is* ``for delay_ns, args in
   entries: post(delay_ns, fn, *args)``: entry *i* holds the sequence
   number that loop would have drawn (``seq0 + i``, reserved at the
   call), so firing order, ties against every other event,
   ``events_processed`` and the clock are those of the loop.  The run
   is kept sorted by ``(time, seq)`` outside the queue, which holds only
   the run's earliest unfired entry (one queue slot per run, the next
   entry queued before the current one fires); what fires is the
   caller's ``fn``, never a trampoline.  A negative delay anywhere
   in the run rejects the whole run: nothing queued, no ``seq`` drawn.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional, Tuple

from repro.sim.sanitize import SanitizerError, sanitize_enabled

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.profile import SimProfiler

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000

#: Sentinel horizon when ``run`` has no ``until`` — larger than any
#: reachable integer-ns timestamp, so the loop needs no None check.
_FOREVER = 1 << 62


def ns_from_us(us: float) -> int:
    """Convert microseconds to integer nanoseconds."""
    return int(round(us * NS_PER_US))


def ns_from_ms(ms: float) -> int:
    """Convert milliseconds to integer nanoseconds."""
    return int(round(ms * NS_PER_MS))


def ns_from_sec(sec: float) -> int:
    """Convert seconds to integer nanoseconds."""
    return int(round(sec * NS_PER_SEC))


def us_from_ns(ns: int) -> float:
    """Convert integer nanoseconds to (float) microseconds."""
    return ns / NS_PER_US


class Event:
    """Handle for a scheduled callback.

    Cancellation is lazy: :meth:`cancel` marks the event and the kernel
    drops the queue entry when it next reaches the head (see the kernel
    contract in the module docstring).  This keeps queue operations
    O(log n) without the bookkeeping of a priority queue that supports
    removal.

    Heap entries are ``(time, seq, event)`` tuples so ordering is
    decided by C-level integer comparison (``seq`` is unique, so the
    Event itself is never compared) — this matters: event ordering is
    the hottest operation in the simulator.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: int, seq: int, fn: Callable[..., None], args: Tuple[Any, ...]):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the simulator drops it instead of firing it."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}ns, fn={getattr(self.fn, '__name__', self.fn)}, {state})"


class Simulator:
    """A deterministic discrete-event simulator with an integer-ns clock.

    Usage::

        sim = Simulator()
        sim.schedule(100, callback, arg1, arg2)   # fire 100 ns from now
        sim.run(until=ns_from_ms(10))

    ``sanitize`` switches on the SimSanitizer clock/heap invariant
    checks for this instance (``None`` defers to ``REPRO_SANITIZE``);
    see :mod:`repro.sim.sanitize`.

    ``profiler`` attributes wall-clock to event-handler types
    (``None`` defers to the active :mod:`repro.obs.runtime` context).
    """

    def __init__(
        self,
        sanitize: Optional[bool] = None,
        profiler: Optional["SimProfiler"] = None,
    ) -> None:
        if profiler is None:
            from repro.obs.runtime import active_profiler

            profiler = active_profiler()
        self.profiler = profiler
        self._now: int = 0
        # Heap entries are ``(time, seq, Event)`` (cancellable, from
        # :meth:`schedule`), ``(time, seq, fn, args)`` (the fire-and-
        # forget fast path of :meth:`post`) or ``(time, seq, fn, args,
        # rest)`` (the head of a :meth:`post_run`; ``rest`` holds the
        # run's later entries, latest first).  ``seq`` is unique so
        # ordering never compares the third element and the three entry
        # shapes can share one heap, told apart by length.
        self._heap: List[Tuple[Any, ...]] = []
        self._seq: int = 0
        self._events_processed: int = 0
        self._stopped: bool = False
        self.sanitize: bool = sanitize_enabled(sanitize)

    def _sanitize_pop(self, time: int, seq: int, fn: Callable[..., None]) -> None:
        """Clock-monotonicity / heap-ordering check on a popped event."""
        if time < self._now:
            raise SanitizerError(
                "clock-monotonicity",
                "event fires in the past",
                {
                    "callback": getattr(fn, "__qualname__", repr(fn)),
                    "event_time_ns": time,
                    "seq": seq,
                    "now_ns": self._now,
                },
            )

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far (excludes cancelled events)."""
        return self._events_processed

    def schedule(self, delay_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay_ns`` nanoseconds from now.

        Returns an :class:`Event` handle that can be cancelled.  Negative
        delays are rejected: an event may never fire in the past.
        """
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns}ns)")
        time = self._now + delay_ns
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, fn, args)
        _heappush(self._heap, (time, seq, event))
        return event

    def post(self, delay_ns: int, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Event` handle.

        The hot path of the simulator — port transmissions, packet
        deliveries, transport kicks — never cancels its events, so it
        skips the per-event handle allocation.  ``post`` shares the
        sequence counter with ``schedule``; interleaving both keeps
        runs bit-identical with an all-``schedule`` event graph.
        """
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns}ns)")
        seq = self._seq
        self._seq = seq + 1
        _heappush(self._heap, (self._now + delay_ns, seq, fn, args))

    def post_run(
        self, fn: Callable[..., None], entries: Iterable[Tuple[int, Tuple[Any, ...]]]
    ) -> None:
        """Post a whole schedule of ``fn`` calls known in advance.

        ``entries`` yields ``(delay_ns, args)`` pairs; the call is by
        definition ``for delay_ns, args in entries: post(delay_ns, fn,
        *args)`` (kernel contract rule 7) — same sequence numbers, same
        firing order, same counters.  What differs is the cost: the run
        is sorted once and only its earliest unfired entry occupies the
        heap, so an arrival schedule of thousands of entries (fig10's
        injector, an open-loop source's on-window, a replayed log) does
        not deepen every other event's sift.
        """
        now = self._now
        seq = self._seq
        rest: List[Tuple[Any, ...]] = []
        for delay_ns, args in entries:
            if delay_ns < 0:
                raise ValueError(f"cannot schedule into the past (delay={delay_ns}ns)")
            rest.append((now + delay_ns, seq, fn, args, rest))
            seq += 1
        if rest:
            self._seq = seq
            # (time, seq) is unique, so the sort never compares ``fn``.
            rest.sort(reverse=True)
            _heappush(self._heap, rest.pop())

    def schedule_at(self, time_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time_ns``.

        A past timestamp is rejected with a message that names what the
        caller actually passed — the absolute time and the current
        clock — rather than the internal relative delay.
        """
        if time_ns < self._now:
            raise ValueError(
                f"cannot schedule at absolute time {time_ns}ns: "
                f"it is in the past (now={self._now}ns)"
            )
        return self.schedule(time_ns - self._now, fn, *args)

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self._stopped = True

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if idle.

        Cancelled entries at the queue head are physically discarded
        (kernel contract rule 2) — peeking never reports a time that
        belongs to an event that will not fire.
        """
        heap = self._heap
        while heap and len(heap[0]) == 3 and heap[0][2].cancelled:
            _heappop(heap)
        return heap[0][0] if heap else None

    def step(self) -> bool:
        """Fire the next event.  Returns False when no events remain.

        Cancelled entries encountered on the way are discarded without
        firing, without advancing the clock, and without counting
        (kernel contract rule 2) — exactly as :meth:`run` treats them.
        """
        heap = self._heap
        while heap:
            item = _heappop(heap)
            if len(item) == 4:
                fn, args = item[2], item[3]
            elif len(item) == 5:
                fn, args = item[2], item[3]
                if item[4]:
                    _heappush(heap, item[4].pop())
            else:
                event = item[2]
                if event.cancelled:
                    continue
                fn, args = event.fn, event.args
            if self.sanitize:
                self._sanitize_pop(item[0], item[1], fn)
            self._now = item[0]
            self._events_processed += 1
            fn(*args)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains, ``until`` is reached, or
        ``max_events`` more events have fired.

        ``until`` is an absolute timestamp; events scheduled exactly at
        ``until`` still fire (the loop stops once the next event would be
        strictly later).  The clock is advanced to ``until`` only when the
        loop actually covered the horizon — by draining the queue or by
        reaching a strictly-later event.  Exits via :meth:`stop` or
        ``max_events`` leave the clock at the last fired event, so callers
        observe *when* the run was interrupted rather than a silently
        jumped clock.  An ``until`` in the past fires nothing and leaves
        the clock alone.  (Kernel contract rules 3 and 4.)
        """
        timed = None if self.profiler is None else self.profiler.timed
        self._run_core(until, max_events, timed)

    def _run_core(
        self,
        until: Optional[int],
        max_events: Optional[int],
        timed: Optional[Callable[[Callable[..., None], Tuple[Any, ...]], None]],
    ) -> None:
        """One run loop for the plain and profiled paths.

        Two separately inlined loops once drifted in their
        cancellation/horizon handling; a single core is the contract's
        reference implementation.  ``timed`` is ``None`` on the plain
        path — the per-event branch is one identity test on a local,
        measured in the noise next to the callback dispatch itself.
        """
        self._stopped = False
        heap = self._heap
        pop = _heappop
        fired = 0
        limit = -1 if max_events is None else max_events
        horizon = _FOREVER if until is None else until
        sanitize = self.sanitize
        # ``fired`` is folded into ``_events_processed`` on every exit
        # path (the finally) instead of per event; the counter is only
        # observable between events anyway since callbacks run inline.
        try:
            while not self._stopped:
                if not heap:
                    break
                if fired == limit:
                    return
                item = pop(heap)
                time = item[0]
                if time > horizon:
                    _heappush(heap, item)
                    if self._now < horizon:
                        self._now = horizon
                    return
                if len(item) == 4:
                    fn, args = item[2], item[3]
                elif len(item) == 5:
                    # Head of a run: queue its successor before firing,
                    # so the heap is whole on every exit path.
                    fn, args = item[2], item[3]
                    if item[4]:
                        _heappush(heap, item[4].pop())
                else:
                    event = item[2]
                    if event.cancelled:
                        continue
                    fn, args = event.fn, event.args
                if sanitize:
                    self._sanitize_pop(time, item[1], fn)
                self._now = time
                if timed is None:
                    fn(*args)
                else:
                    timed(fn, args)
                fired += 1
            if not self._stopped and until is not None and self._now < until:
                # Drained below the horizon: cover the idle stretch.
                self._now = until
        finally:
            self._events_processed += fired

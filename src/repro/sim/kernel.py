"""Struct-of-arrays simulator kernel (the ``array`` backend).

The pure kernel stores one Python tuple per pending event.  This kernel
stores *no per-event container*: the heap is a flat list of integer
keys, and callbacks/args live in a preallocated slot table (parallel
lists indexed by a pooled slot id).  The layout is exactly what the C
extension kernel (:mod:`repro.sim.compiled`) implements natively —
this module is its always-available pure-Python reference.

Key encoding
------------

Each pending event is one arbitrary-precision integer::

    key = ((time << SEQ_BITS) | seq) << SLOT_BITS | slot

``time`` (integer nanoseconds) occupies the high bits so plain integer
comparison orders keys by ``(time, seq)`` — the kernel contract's
tie-FIFO ordering — while ``slot`` rides along in bits that can never
influence the ordering (``seq`` is unique).  ``heapq`` on a list of
ints keeps the ordering work in C.

The slot table holds, per pending event, either the ``(fn, args)`` pair
of a fire-and-forget :meth:`post` or the :class:`~repro.sim.engine.
Event` handle of a cancellable :meth:`schedule`.  Slots are recycled
through a free list the moment the kernel consumes the entry, so the
table's size tracks the *peak concurrent* event count, not the run
length.

Limits: ``seq`` has 42 bits (4.4e12 events per simulator — centuries of
wall-clock at current rates) and ``slot`` 24 bits (16.7M concurrently
pending events); both overflow with an explicit error rather than a
silent ordering break.
"""

from __future__ import annotations

from heapq import heappop as _heappop, heappush as _heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.engine import _FOREVER, Event, Simulator

SLOT_BITS = 24
SEQ_BITS = 42
_SLOT_MASK = (1 << SLOT_BITS) - 1
_SEQ_MASK = (1 << SEQ_BITS) - 1
_TIME_SHIFT = SLOT_BITS + SEQ_BITS
_SEQ_LIMIT = 1 << SEQ_BITS
_SLOT_LIMIT = 1 << SLOT_BITS


class ArraySimulator(Simulator):
    """The :class:`Simulator` API over struct-of-arrays event storage.

    Semantics are bit-identical to the pure kernel (same ordering, same
    lazy cancellation, same clock behavior on every exit path — see the
    kernel contract in :mod:`repro.sim.engine`); only the storage
    layout differs.
    """

    def __init__(
        self,
        sanitize: Optional[bool] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        super().__init__(sanitize=sanitize, profiler=profiler)
        # The integer-key heap; the inherited tuple heap stays empty.
        self._keys: List[int] = []
        # Slot table: parallel lists indexed by slot id.  A slot holds
        # either a post entry (fn + args) or a schedule entry (event);
        # ``fn is None`` distinguishes the two, mirroring the pure
        # kernel's 4-tuple vs 3-tuple heap entries.
        self._slot_fn: List[Optional[Callable[..., None]]] = []
        self._slot_args: List[Optional[Tuple[Any, ...]]] = []
        self._slot_event: List[Optional[Event]] = []
        self._free: List[int] = []

    # ------------------------------------------------------------------
    # slot pool
    # ------------------------------------------------------------------
    def _alloc_slot(self) -> int:
        free = self._free
        if free:
            return free.pop()
        slot = len(self._slot_fn)
        if slot >= _SLOT_LIMIT:
            raise OverflowError(
                f"array kernel slot pool exhausted: {_SLOT_LIMIT} events "
                "pending concurrently"
            )
        self._slot_fn.append(None)
        self._slot_args.append(None)
        self._slot_event.append(None)
        return slot

    def _next_seq(self) -> int:
        seq = self._seq
        if seq >= _SEQ_LIMIT:
            raise OverflowError(
                f"array kernel sequence space exhausted after {_SEQ_LIMIT} "
                "events"
            )
        self._seq = seq + 1
        return seq

    # ------------------------------------------------------------------
    # scheduling API
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, fn: Callable[..., None], *args: Any) -> Event:
        """See :meth:`Simulator.schedule`; returns a cancellable handle."""
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns}ns)")
        time = self._now + delay_ns
        seq = self._next_seq()
        event = Event(time, seq, fn, args)
        slot = self._alloc_slot()
        self._slot_event[slot] = event
        _heappush(self._keys, ((time << SEQ_BITS | seq) << SLOT_BITS) | slot)
        return event

    def post(self, delay_ns: int, fn: Callable[..., None], *args: Any) -> None:
        """See :meth:`Simulator.post`; shares the seq counter with schedule."""
        if delay_ns < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay_ns}ns)")
        seq = self._next_seq()
        slot = self._alloc_slot()
        self._slot_fn[slot] = fn
        self._slot_args[slot] = args
        _heappush(
            self._keys,
            (((self._now + delay_ns) << SEQ_BITS | seq) << SLOT_BITS) | slot,
        )

    #: Contract rule 7 as written: no run storage in this kernel.
    post_run = Simulator._post_run_loop

    # ------------------------------------------------------------------
    # kernel paths (contract rules 2-4)
    # ------------------------------------------------------------------
    def _release_post_slot(self, slot: int) -> Tuple[Callable[..., None], Tuple[Any, ...]]:
        fn = self._slot_fn[slot]
        args = self._slot_args[slot] or ()
        assert fn is not None
        self._slot_fn[slot] = None
        self._slot_args[slot] = None
        self._free.append(slot)
        return fn, args

    def _release_event_slot(self, slot: int) -> Event:
        event = self._slot_event[slot]
        assert event is not None
        self._slot_event[slot] = None
        self._free.append(slot)
        return event

    def peek_time(self) -> Optional[int]:
        """See :meth:`Simulator.peek_time`; discards cancelled heads."""
        keys = self._keys
        while keys:
            key = keys[0]
            slot = key & _SLOT_MASK
            if self._slot_fn[slot] is None:
                event = self._slot_event[slot]
                if event is not None and event.cancelled:
                    _heappop(keys)
                    self._release_event_slot(slot)
                    continue
            return key >> _TIME_SHIFT
        return None

    def step(self) -> bool:
        """See :meth:`Simulator.step`."""
        keys = self._keys
        while keys:
            key = _heappop(keys)
            slot = key & _SLOT_MASK
            if self._slot_fn[slot] is None:
                event = self._release_event_slot(slot)
                if event.cancelled:
                    continue
                fn, args = event.fn, event.args
            else:
                fn, args = self._release_post_slot(slot)
            if self.sanitize:
                self._sanitize_pop(
                    key >> _TIME_SHIFT, (key >> SLOT_BITS) & _SEQ_MASK, fn
                )
            self._now = key >> _TIME_SHIFT
            self._events_processed += 1
            fn(*args)
            return True
        return False

    def _run_core(
        self,
        until: Optional[int],
        max_events: Optional[int],
        timed: Optional[Callable[[Callable[..., None], Tuple[Any, ...]], None]],
    ) -> None:
        self._stopped = False
        keys = self._keys
        pop = _heappop
        slot_fn = self._slot_fn
        slot_args = self._slot_args
        slot_event = self._slot_event
        free = self._free
        fired = 0
        limit = -1 if max_events is None else max_events
        horizon = _FOREVER if until is None else until
        sanitize = self.sanitize
        try:
            while not self._stopped:
                if not keys:
                    break
                if fired == limit:
                    return
                key = keys[0]
                time = key >> _TIME_SHIFT
                if time > horizon:
                    # Strictly-later event: stays queued, horizon covered.
                    self._now = horizon
                    return
                pop(keys)
                slot = key & _SLOT_MASK
                fn = slot_fn[slot]
                if fn is None:
                    event = slot_event[slot]
                    slot_event[slot] = None
                    free.append(slot)
                    assert event is not None
                    if event.cancelled:
                        continue
                    fn = event.fn
                    args = event.args
                else:
                    args = slot_args[slot] or ()
                    slot_fn[slot] = None
                    slot_args[slot] = None
                    free.append(slot)
                if sanitize:
                    self._sanitize_pop(time, (key >> SLOT_BITS) & _SEQ_MASK, fn)
                self._now = time
                if timed is None:
                    fn(*args)
                else:
                    timed(fn, args)
                fired += 1
            if not self._stopped and until is not None and self._now < until:
                self._now = until
        finally:
            self._events_processed += fired

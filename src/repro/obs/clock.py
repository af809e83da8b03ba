"""Clock sources for span timestamps: one vocabulary, two time domains.

Every span in :mod:`repro.obs.trace` carries integer-nanosecond
timestamps, but *whose* nanoseconds depends on where the span was
recorded: the simulator's tracer hooks receive ``Simulator.now``
(virtual time), while the live runtime (:mod:`repro.live`) stamps the
same record shapes from a wall clock.  This module names that seam: a
:class:`~repro.core.clocks.ClockSource` is anything with
``now_ns() -> int``, and span-producing code that takes one is
domain-neutral by construction.

* the simulator's clock is the bare callable ``lambda: sim.now``
  (virtual nanoseconds), which :func:`~repro.core.clocks.as_now_fn`
  accepts as it is;
* :class:`repro.live.clock.WallClock` is the wall-clock counterpart
  (monotonic nanoseconds rebased to a run origin);
* :class:`~repro.core.clocks.FixedClock` is the test double.

Timestamps from different domains are **not comparable** — a virtual
``time_ns`` and a wall ``time_ns`` only share arithmetic within their
own log (see ``docs/live.md`` on clock-domain caveats).  The shared
vocabulary buys interchangeable *tooling*, not interchangeable clocks.
"""

from __future__ import annotations

from repro.core.clocks import ClockLike, ClockSource, FixedClock, as_now_fn

__all__ = ["ClockLike", "ClockSource", "FixedClock", "as_now_fn"]

"""Unit tests for the discrete-event kernel: the characterization of
the kernel contract in :mod:`repro.sim.engine`'s docstring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import (
    NS_PER_MS,
    NS_PER_SEC,
    NS_PER_US,
    Simulator,
    ns_from_ms,
    ns_from_us,
)


def test_unit_conversions():
    assert ns_from_us(1.5) == 1500
    assert ns_from_ms(2) == 2 * NS_PER_MS
    assert NS_PER_SEC == 1000 * NS_PER_MS == 10**6 * NS_PER_US


def test_clock_starts_at_zero(make_sim):
    assert make_sim().now == 0


def test_events_fire_in_time_order(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule(300, fired.append, "c")
    sim.schedule(100, fired.append, "a")
    sim.schedule(200, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_fifo_order(make_sim):
    sim = make_sim()
    fired = []
    for label in "abcde":
        sim.schedule(50, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time(make_sim):
    sim = make_sim()
    seen = []
    sim.schedule(123, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [123]
    assert sim.now == 123


def test_negative_delay_rejected(make_sim):
    with pytest.raises(ValueError):
        make_sim().schedule(-1, lambda: None)


def test_cancelled_event_does_not_fire(make_sim):
    sim = make_sim()
    fired = []
    handle = sim.schedule(10, fired.append, "x")
    sim.schedule(5, handle.cancel)
    sim.run()
    assert fired == []
    assert sim.events_processed == 1  # only the cancelling event


def test_run_until_stops_before_later_events(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule(100, fired.append, "early")
    sim.schedule(1000, fired.append, "late")
    sim.run(until=500)
    assert fired == ["early"]
    assert sim.now == 500
    sim.run()
    assert fired == ["early", "late"]


def test_event_exactly_at_until_fires(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule(500, fired.append, "at")
    sim.run(until=500)
    assert fired == ["at"]


def test_run_with_empty_queue_advances_to_until(make_sim):
    sim = make_sim()
    sim.run(until=999)
    assert sim.now == 999


def test_max_events_limits_execution(make_sim):
    sim = make_sim()
    fired = []
    for i in range(10):
        sim.schedule(i + 1, fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_stop_halts_run_loop(make_sim):
    sim = make_sim()
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, sim.stop)
    sim.schedule(3, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_events_scheduled_during_run_fire(make_sim):
    sim = make_sim()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 30


def test_step_returns_false_when_idle(make_sim):
    sim = make_sim()
    assert sim.step() is False
    sim.schedule(1, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_peek_time_skips_cancelled(make_sim):
    sim = make_sim()
    h = sim.schedule(5, lambda: None)
    sim.schedule(10, lambda: None)
    h.cancel()
    assert sim.peek_time() == 10


def test_determinism_same_schedule_same_order(make_sim):
    def build():
        sim = make_sim()
        order = []
        for i in range(100):
            sim.schedule((i * 37) % 50, order.append, i)
        sim.run()
        return order

    assert build() == build()


# ----------------------------------------------------------------------
# Clock semantics on interrupted runs (stop / max_events / until)
# ----------------------------------------------------------------------
def test_stop_does_not_jump_clock_to_until(make_sim):
    """Regression: exiting via stop() once fell through to the
    advance-to-until epilogue, silently jumping the clock past the
    interruption point."""
    sim = make_sim()
    sim.schedule(100, sim.stop)
    sim.schedule(500, lambda: None)
    sim.run(until=1000)
    assert sim.now == 100
    # Pending events are untouched; a fresh run serves them and only
    # then covers the horizon.
    sim.run(until=1000)
    assert sim.now == 1000
    assert sim.events_processed == 2


def test_max_events_leaves_clock_at_last_event(make_sim):
    sim = make_sim()
    for t in (10, 20, 30, 40):
        sim.schedule(t, lambda: None)
    sim.run(until=1000, max_events=2)
    assert sim.now == 20
    assert sim.events_processed == 2
    sim.run(until=1000)
    assert sim.now == 1000
    assert sim.events_processed == 4


def test_stop_until_max_events_interplay(make_sim):
    """stop() wins over both budgets and leaves the clock at the
    stopping event; the remaining budget is not consumed."""
    sim = make_sim()
    fired = []
    sim.schedule(10, fired.append, 1)
    sim.schedule(20, sim.stop)
    sim.schedule(30, fired.append, 3)
    sim.run(until=1000, max_events=10)
    assert fired == [1]
    assert sim.now == 20
    sim.run(max_events=1)
    assert fired == [1, 3]
    assert sim.now == 30


def test_run_until_in_the_past_leaves_the_clock():
    """Regression: with an event still queued beyond it, a horizon
    earlier than ``now`` used to set the clock back to it, so a later
    ``post(0, ...)`` fired before events that had already fired."""
    sim = Simulator(sanitize=True)
    fired = []
    sim.post(100, lambda: fired.append(sim.now))
    sim.post(200, lambda: fired.append(sim.now))
    sim.run(until=100)
    sim.run(until=50)
    assert sim.now == 100
    assert sim.events_processed == 1
    sim.post(0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [100, 100, 200]


def test_post_interleaves_fifo_with_schedule(make_sim):
    """post() shares the sequence counter with schedule(): same-time
    events fire in submission order regardless of which API queued
    them."""
    sim = make_sim()
    order = []
    sim.schedule(50, order.append, "a")
    sim.post(50, order.append, "b")
    sim.schedule(50, order.append, "c")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.events_processed == 3


def test_post_rejects_negative_delay(make_sim):
    sim = make_sim()
    with pytest.raises(ValueError):
        sim.post(-1, print)


# ----------------------------------------------------------------------
# Lazy-cancellation characterization (kernel contract rule 2).
# ----------------------------------------------------------------------
def test_cancelled_events_do_not_consume_max_events(make_sim):
    """A cancelled entry visited on the way to the budget is discarded
    for free: max_events counts fired events only."""
    sim = make_sim()
    fired = []
    handles = [sim.schedule(10 + i, fired.append, i) for i in range(5)]
    handles[0].cancel()
    handles[1].cancel()
    sim.run(max_events=2)
    assert fired == [2, 3]
    assert sim.events_processed == 2


def test_cancelled_event_does_not_advance_clock(make_sim):
    """Discarding a cancelled entry never moves the clock — even when
    the cancelled event was the only thing between now and later work."""
    sim = make_sim()
    h = sim.schedule(100, lambda: None)
    h.cancel()
    sim.run(max_events=1)
    # Budget exit with nothing fired: clock untouched.
    assert sim.now == 0
    assert sim.events_processed == 0


def test_cancelled_tie_preserves_fifo_of_survivors(make_sim):
    """Cancelling one of several same-timestamp events leaves the
    survivors' FIFO order intact."""
    sim = make_sim()
    order = []
    sim.schedule(50, order.append, "a")
    h = sim.schedule(50, order.append, "b")
    sim.post(50, order.append, "c")
    sim.schedule(50, order.append, "d")
    h.cancel()
    sim.run()
    assert order == ["a", "c", "d"]
    assert sim.events_processed == 3


def test_cancel_beyond_until_leaves_entry_until_visited(make_sim):
    """A cancelled event beyond the horizon is simply never reached;
    the run still covers the horizon and a later run discards it."""
    sim = make_sim()
    h = sim.schedule(2000, lambda: None)
    sim.schedule(100, lambda: None)
    h.cancel()
    sim.run(until=1000)
    assert sim.now == 1000
    assert sim.events_processed == 1
    sim.run()  # drains: only the cancelled entry remains, fires nothing
    assert sim.events_processed == 1
    assert sim.peek_time() is None


def test_cancel_mid_run_from_earlier_event(make_sim):
    """An event cancelled by an earlier event in the same run is
    discarded when reached, without firing."""
    sim = make_sim()
    fired = []
    victim = sim.schedule(200, fired.append, "victim")
    sim.schedule(100, victim.cancel)
    sim.schedule(300, fired.append, "after")
    sim.run()
    assert fired == ["after"]
    assert sim.events_processed == 2


def test_step_discards_cancelled_then_fires_next(make_sim):
    """step() applies the same discard-at-head rule as run()."""
    sim = make_sim()
    fired = []
    h = sim.schedule(5, fired.append, "cancelled")
    sim.schedule(10, fired.append, "live")
    h.cancel()
    assert sim.step() is True
    assert fired == ["live"]
    assert sim.now == 10
    assert sim.events_processed == 1


def test_step_returns_false_when_only_cancelled_remain(make_sim):
    sim = make_sim()
    h = sim.schedule(5, lambda: None)
    h.cancel()
    assert sim.step() is False
    assert sim.now == 0
    assert sim.events_processed == 0


def test_peek_time_drains_all_cancelled_heads(make_sim):
    sim = make_sim()
    handles = [sim.schedule(i, lambda: None) for i in range(1, 4)]
    for h in handles:
        h.cancel()
    assert sim.peek_time() is None
    sim.schedule(9, lambda: None)
    assert sim.peek_time() == 9


def test_cancel_after_fire_is_inert(make_sim):
    """Cancelling a handle whose event already fired must not disturb
    later events (slot/entry reuse regression guard)."""
    sim = make_sim()
    fired = []
    h = sim.schedule(10, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    h.cancel()  # too late; a no-op
    sim.schedule(10, fired.append, "y")
    sim.run()
    assert fired == ["x", "y"]
    assert sim.events_processed == 2


def test_exception_in_callback_still_counts_fired_events(make_sim):
    """events_processed is folded in on every exit path, including an
    exception escaping a callback (kernel contract rule 6)."""
    sim = make_sim()

    def boom():
        raise RuntimeError("handler failed")

    sim.schedule(1, lambda: None)
    sim.schedule(2, boom)
    sim.schedule(3, lambda: None)
    with pytest.raises(RuntimeError, match="handler failed"):
        sim.run()
    # The first event fired and is counted; the raising one is not.
    assert sim.events_processed == 1
    assert sim.now == 2  # clock had advanced to the raising event
    sim.run()  # the run can be resumed past the failure
    assert sim.events_processed == 2


# ----------------------------------------------------------------------
# Pre-sorted runs (kernel contract rule 7)
# ----------------------------------------------------------------------
def _naive_post_run(sim, fn, entries):
    """Rule 7's definition, spelled out independently of the kernel."""
    entries = list(entries)
    if any(delay < 0 for delay, _ in entries):
        raise ValueError("negative delay in run")
    for delay, args in entries:
        sim.post(delay, fn, *args)


def test_post_run_fires_in_time_then_entry_order(make_sim):
    sim = make_sim()
    fired = []
    sim.post(20, fired.append, "before")
    sim.post_run(fired.append, [(30, ("c",)), (20, ("a",)), (0, ("z",)), (20, ("b",))])
    sim.post(20, fired.append, "after")
    assert sim.peek_time() == 0
    sim.run()
    assert fired == ["z", "before", "a", "b", "after", "c"]
    assert sim.events_processed == 6
    assert sim.now == 30


def test_post_run_delays_are_relative_to_the_posting_instant(make_sim):
    sim = make_sim()
    fired = []

    def burst():
        sim.post_run(lambda i: fired.append((sim.now, i)), ((5 * i, (i,)) for i in range(3)))

    sim.post(100, burst)
    sim.run()
    assert fired == [(100, 0), (105, 1), (110, 2)]


def test_post_run_of_nothing_is_a_no_op(make_sim):
    sim = make_sim()
    seq = sim._seq
    sim.post_run(print, [])
    assert sim.peek_time() is None
    assert sim._seq == seq
    assert sim.step() is False


@pytest.mark.parametrize("bad_at", [0, 2, 4])
def test_post_run_negative_delay_rejects_the_whole_run(make_sim, bad_at):
    """Nothing queued and no sequence number consumed: a later event
    ties exactly as if the rejected call had never been made."""
    sim = make_sim()
    delays = [3, 0, 7, 7, 1]
    delays[bad_at] = -1
    seq = sim._seq
    with pytest.raises(ValueError):
        sim.post_run(print, [(d, ()) for d in delays])
    assert sim._seq == seq
    assert sim.peek_time() is None
    assert sim.step() is False
    assert sim.events_processed == 0


_RUN_DELAYS = st.lists(st.integers(0, 30), max_size=10)  # ties and zeros
_SETUP_OP = st.one_of(
    st.tuples(st.just("run"), st.sampled_from(["ping", "pong"]), _RUN_DELAYS),
    st.tuples(st.just("bad_run"), _RUN_DELAYS, st.integers(0, 10)),
    st.tuples(st.just("post"), st.integers(0, 30)),
    st.tuples(st.just("schedule"), st.integers(0, 30)),
    st.tuples(st.just("cancel"), st.integers(0, 1 << 16)),
    st.tuples(st.just("stop")),
)
_DRIVE_OP = st.one_of(
    st.tuples(st.just("until"), st.integers(0, 40)),
    st.tuples(st.just("max_events"), st.integers(0, 6)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
)


def _play(sim, post_run, setup, reactions, drive):
    """Run one drawn program; returns everything an observer can see.

    ``setup`` ops run before the clock starts, ``reactions[i]`` inside
    the i-th fired callback (so runs are posted mid-run, at ``now > 0``,
    next to posts, schedules, cancels and ``stop()``), ``drive`` ops
    advance the simulator piecewise before a final drain.
    """
    log = []
    handles = []
    tags = iter(range(1 << 30))
    fired = [0]

    def react(fn_name, tag):
        log.append((sim.now, fn_name, tag))
        index = fired[0]
        fired[0] += 1
        if index < len(reactions):
            apply(reactions[index])

    def ping(tag):
        react("ping", tag)

    def pong(tag):
        react("pong", tag)

    fns = {"ping": ping, "pong": pong}

    def apply(ops):
        for op in ops:
            if op[0] == "run":
                post_run(sim, fns[op[1]], [(d, (next(tags),)) for d in op[2]])
            elif op[0] == "bad_run":
                delays = list(op[1])
                delays.insert(op[2] % (len(delays) + 1), -1 - op[2])
                try:
                    post_run(sim, ping, [(d, (next(tags),)) for d in delays])
                except ValueError:
                    log.append("rejected")
            elif op[0] == "post":
                sim.post(op[1], pong, next(tags))
            elif op[0] == "schedule":
                handles.append(sim.schedule(op[1], ping, next(tags)))
            elif op[0] == "cancel":
                if handles:
                    handles[op[1] % len(handles)].cancel()
            else:
                sim.stop()

    apply(setup)
    for op in drive:
        if op[0] == "until":
            sim.run(until=sim.now + op[1])
        elif op[0] == "max_events":
            sim.run(max_events=op[1])
        elif op[0] == "step":
            log.append(("step", sim.step()))
        else:
            log.append(("peek", sim.peek_time()))
        log.append(("at", sim.now, sim.events_processed))
    sim.run()
    return log, sim.events_processed, sim.now, sim.peek_time()


@pytest.mark.parametrize("kernel", [Simulator], ids=["pure"])
@settings(max_examples=150, deadline=None)
@given(
    setup=st.lists(_SETUP_OP, max_size=6),
    reactions=st.lists(st.lists(_SETUP_OP, max_size=3), max_size=8),
    drive=st.lists(_DRIVE_OP, max_size=6),
)
def test_post_run_is_the_naive_post_loop(kernel, setup, reactions, drive):
    """The fired (time, fn, args) sequence, every observation between
    drive steps, ``events_processed`` and the final clock equal those of
    the definitional loop — with ties and zero delays in the runs, runs
    cut by ``run(until=...)``, ``max_events``, ``stop()`` and
    ``step()``, rejected runs, and ``post``/``schedule``/``cancel``
    interleaved before and during the run."""
    reference = _play(Simulator(), _naive_post_run, setup, reactions, drive)
    played = _play(
        kernel(),
        lambda sim, fn, entries: sim.post_run(fn, entries),
        setup,
        reactions,
        drive,
    )
    assert played == reference


def test_a_run_holds_at_most_one_heap_entry():
    """However long the runs, each has one slot in the heap
    (the 5-tuple entries), checked from inside every callback and while
    the clock is stopped mid-run."""
    sim = Simulator()
    peak = [0]

    def check(*_args):
        per_run = {}
        for item in sim._heap:
            if len(item) == 5:
                per_run[id(item[4])] = per_run.get(id(item[4]), 0) + 1
        assert all(count == 1 for count in per_run.values())
        assert len(sim._heap) <= 4  # three runs and the one plain post
        peak[0] = max(peak[0], len(per_run))

    sim.post_run(check, [(i % 7, (i,)) for i in range(500)])
    sim.post_run(check, [(3, ())] * 200)
    sim.post(2, sim.post_run, check, [(i, ()) for i in range(100)])
    check()
    sim.run(until=3)
    check()
    sim.run(max_events=50)
    check()
    sim.run()
    assert sim.events_processed == 801
    assert peak[0] == 3 and sim._heap == []


def test_profiler_names_the_handler_a_run_fires(tmp_path):
    """What fires is the caller's ``fn``, not a trampoline: the first
    slice of the ledger's ``sim_small_rpc_1k`` workload under a profiler
    still books its arrivals (7 sources x ~490 per 100 us period) to
    ``OpenLoopSource._issue_one``."""
    from benchmarks.ledger.workloads import load
    from repro.obs.profile import SimProfiler
    from repro.obs.runtime import ObsContext, activate, deactivate

    profiler = SimProfiler()
    activate(ObsContext(profiler=profiler))
    try:
        load("sim_small_rpc_1k").first_op(1, str(tmp_path))
    finally:
        deactivate()
    calls = {row.name: row.calls for row in profiler.rows()}
    assert calls["OpenLoopSource._issue_one"] > 3000
    assert not any("post_run" in name for name in calls)


def test_sanitized_fig10_fast_points_reproduce_the_plain_rows(monkeypatch):
    """``_sanitize_pop`` sees a run's entries like any other event."""
    from tests import test_fig10_golden

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert Simulator().sanitize
    assert test_fig10_golden.fast_rows() == test_fig10_golden._ROWS


def test_sanitizer_names_the_run_handler():
    """The error context of a run entry firing in the past names the
    caller's handler (it cannot happen through the API; the clock is
    forced forward here to trip the check)."""
    from repro.sim.sanitize import SanitizerError

    sim = Simulator(sanitize=True)

    def arrival():
        pass

    sim.post_run(arrival, [(5, ()), (20, ())])
    sim._now = 10
    with pytest.raises(SanitizerError) as err:
        sim.run()
    assert err.value.invariant == "clock-monotonicity"
    assert "arrival" in err.value.provenance["callback"]
    sim.run()  # the run's successor was queued before the check tripped
    assert sim.events_processed == 1 and sim.now == 20

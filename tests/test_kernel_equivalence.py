"""Kernel equivalence with its pinned traces.

Seeded schedule/post/cancel/stop/run/step/peek programs run on the
kernel, and the sha256 of each full observable trace (fire order, clock
readings, counters) must equal the literal recorded here. The literals
are the traces three independent kernel implementations agreed on, event
for event, before the two alternatives were retired, so any behavioural
drift in the remaining kernel shows up as a hash mismatch. Two
hand-written stress programs (all ties, a cancel storm) sit beside them.
"""

import hashlib
import random

import pytest

from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# randomized program traces
# ----------------------------------------------------------------------
def _run_program(sim, seed, n_driver_ops=80):
    """One seeded kernel workout on ``sim``; returns the full observable
    trace (fire order, clock readings, counters, peeked times).

    The RNG is consumed both by the driver and inside callbacks, so any
    change in firing order derails the draw sequence and shows up in the
    whole rest of the trace — the comparison is self-amplifying.
    """
    rng = random.Random(seed)
    log = []
    handles = []

    def record(label):
        log.append(("fire", label, sim.now, sim.events_processed))

    def busy(label, depth):
        log.append(("busy", label, sim.now, sim.events_processed))
        if depth >= 4:
            return
        roll = rng.random()
        if roll < 0.35:
            handles.append(
                sim.schedule(rng.randrange(0, 60), busy, label * 31 + 1, depth + 1)
            )
        elif roll < 0.60:
            sim.post(rng.randrange(0, 60), busy, label * 31 + 2, depth + 1)
        elif roll < 0.72 and handles:
            handles[rng.randrange(len(handles))].cancel()
        elif roll < 0.80:
            handles.append(sim.schedule(rng.randrange(0, 60), record, label * 31 + 3))
        elif roll < 0.84:
            sim.stop()
            log.append(("stop", sim.now))

    for i in range(n_driver_ops):
        roll = rng.random()
        delay = rng.randrange(0, 200)
        if roll < 0.35:
            handles.append(sim.schedule(delay, record, i))
        elif roll < 0.60:
            sim.post(delay, busy, i, 0)
        elif roll < 0.70:
            handles.append(sim.schedule_at(sim.now + delay, record, 10_000 + i))
        elif roll < 0.80 and handles:
            handles[rng.randrange(len(handles))].cancel()
        elif roll < 0.90:
            sim.run(max_events=rng.randrange(1, 8))
            log.append(("budget", sim.now, sim.events_processed, sim.peek_time()))
        else:
            sim.run(until=sim.now + rng.randrange(0, 300))
            log.append(("until", sim.now, sim.events_processed, sim.peek_time()))

    sim.run(until=sim.now + 500)
    log.append(("horizon", sim.now, sim.events_processed, sim.peek_time()))
    for _ in range(25):
        if not sim.step():
            break
        log.append(("step", sim.now, sim.events_processed))
    sim.run()
    log.append(("drained", sim.now, sim.events_processed, sim.peek_time()))
    return log


#: sha256 of ``repr(_run_program(Simulator(), seed))``.
_PROGRAM_TRACE_SHA256 = {
    1: "16757d66a7f86863ebb10e47b22ee56530e99c82dbdc3b955dd1a6c0661d6d7b",
    7: "1117963c3cdcc70a5d41ba94dd26d808f9dce91f20e9eeb297493b23d986010e",
    23: "13c9db5ca6149d4f15880e3b1f4910d7e2c031d946fa541b711cfca27f62985a",
    99: "d72cf6b213e53e2cb64b86dc34b56d745761314283f3778ff935c6f7d32a608f",
    4242: "4438fdb6611ea2a96b573a36531e5095288aa23befbdf29bfede298014485a82",
}


@pytest.mark.parametrize("seed", sorted(_PROGRAM_TRACE_SHA256))
def test_randomized_program_trace_parity(seed):
    log = _run_program(Simulator(), seed)
    assert len(log) > 60, "program too small to be probative"
    assert any(entry[0] == "busy" for entry in log)
    assert hashlib.sha256(repr(log).encode()).hexdigest() == _PROGRAM_TRACE_SHA256[seed]


def test_tie_heavy_program_is_submission_ordered(make_sim):
    """All-ties stress: every event at one timestamp, mixed APIs."""
    sim = make_sim()
    fired = []
    for i in range(200):
        if i % 3 == 0:
            sim.post(10, fired.append, i)
        elif i % 3 == 1:
            sim.schedule(10, fired.append, i)
        else:
            sim.schedule_at(10, fired.append, i)
    sim.run()
    assert fired == list(range(200))
    assert sim.now == 10
    assert sim.events_processed == 200


def test_cancel_storm_parity_counts(make_sim):
    """Cancel every other handle, including some already fired."""
    sim = make_sim()
    fired = []
    handles = [sim.schedule(i % 17, fired.append, i) for i in range(100)]
    sim.run(max_events=10)
    for handle in handles[::2]:
        handle.cancel()
    sim.run()
    # The first 10 fired before the cancel storm (cancelling them is
    # inert); of the rest only the odd-indexed survive.
    order = sorted(range(100), key=lambda i: (i % 17, i))
    survivors = order[:10] + [i for i in order[10:] if i % 2 == 1]
    assert fired == survivors
    assert sim.events_processed == len(survivors)

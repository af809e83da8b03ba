"""SimSanitizer tests: each invariant must trip on deliberately
corrupted state with structured provenance, stay silent on healthy
runs, and — the load-bearing property — leave results bit-identical
(sanitized and unsanitized runs of the same seed produce the same
digest).
"""

import pytest

from repro.core.admission import AdmissionController
from repro.core.qos import QoS
from repro.core.slo import SLOMap
from repro.net.packet import Packet
from repro.net.queues import (
    DwrrScheduler,
    FifoScheduler,
    PFabricScheduler,
    StrictPriorityScheduler,
    WfqScheduler,
)
from repro.sim import SANITIZE_ENV_VAR, SanitizerError, Simulator, sanitize_enabled

BUF = 1 << 20


def _pkt(qos=0, size=1500, **kw):
    return Packet(src=0, dst=1, qos=qos, size_bytes=size, **kw)


# ----------------------------------------------------------------------
# Flag resolution
# ----------------------------------------------------------------------
def test_explicit_flag_wins_over_env(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    assert sanitize_enabled(False) is False
    monkeypatch.delenv(SANITIZE_ENV_VAR)
    assert sanitize_enabled(True) is True


@pytest.mark.parametrize("value,expect", [
    ("1", True), ("true", True), ("on", True), ("yes", True),
    ("0", False), ("", False), ("false", False), ("no", False),
    ("off", False), ("  False  ", False),
])
def test_env_parsing(monkeypatch, value, expect):
    monkeypatch.setenv(SANITIZE_ENV_VAR, value)
    assert sanitize_enabled() is expect


def test_env_enables_all_layers(monkeypatch):
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    assert Simulator().sanitize is True
    assert WfqScheduler((1, 1), BUF)._sanitize is True
    monkeypatch.delenv(SANITIZE_ENV_VAR)
    assert Simulator().sanitize is False


# ----------------------------------------------------------------------
# Clock monotonicity (simulator kernel)
# ----------------------------------------------------------------------
def _corrupt_past_event(sim):
    """Plant a heap entry that fires before ``now`` — impossible via the
    public API (schedule/post reject negative delays), so reach into the
    kernel's heap the way a kernel bug would."""
    import heapq

    heapq.heappush(sim._heap, (sim.now - 5, sim._seq, lambda: None, ()))
    sim._seq += 1


def test_clock_monotonicity_trips_in_step():
    sim = Simulator(sanitize=True)
    sim.post(100, lambda: None)
    assert sim.step()
    _corrupt_past_event(sim)
    with pytest.raises(SanitizerError) as exc:
        sim.step()
    assert exc.value.invariant == "clock-monotonicity"
    prov = exc.value.provenance
    assert prov["event_time_ns"] == 95 and prov["now_ns"] == 100
    assert "callback" in prov and "seq" in prov


def test_clock_monotonicity_trips_in_run():
    sim = Simulator(sanitize=True)

    def corrupt():
        _corrupt_past_event(sim)

    sim.post(100, corrupt)
    with pytest.raises(SanitizerError) as exc:
        sim.run()
    assert exc.value.invariant == "clock-monotonicity"


def test_unsanitized_simulator_skips_the_check():
    sim = Simulator(sanitize=False)
    sim.post(100, lambda: None)
    sim.step()
    _corrupt_past_event(sim)
    assert sim.step()  # fires without raising; clock bug goes unnoticed


# ----------------------------------------------------------------------
# Queue conservation (every scheduler family)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("make", [
    lambda: FifoScheduler(BUF, num_classes=3, sanitize=True),
    lambda: StrictPriorityScheduler(3, BUF, sanitize=True),
    lambda: WfqScheduler((8, 4, 1), BUF, sanitize=True),
    lambda: DwrrScheduler((8, 4, 1), BUF, sanitize=True),
    lambda: PFabricScheduler(BUF, num_classes=3, sanitize=True),
], ids=["fifo", "spq", "wfq", "dwrr", "pfabric"])
def test_conservation_trips_on_tampered_counters(make):
    sched = make()
    sched.enqueue(_pkt(qos=1))
    # Forge a phantom dequeue: enq == deq + backlog no longer holds.
    sched.stats.dequeued[1] += 1
    with pytest.raises(SanitizerError) as exc:
        sched.enqueue(_pkt(qos=1))
    assert exc.value.invariant == "queue-conservation"
    prov = exc.value.provenance
    assert prov["enqueued"][1] >= 1 and prov["dequeued"][1] == 1
    assert prov["packet"] is not None
    assert "conservation" in str(exc.value)


def test_conservation_trips_on_leaked_backlog():
    sched = WfqScheduler((8, 4, 1), BUF, sanitize=True)
    for _ in range(3):
        sched.enqueue(_pkt(qos=0))
    # A packet vanishes from its class FIFO without any stats update —
    # the shape of a lost-packet bug in a scheduler rewrite.
    sched._queues[0].pop()
    with pytest.raises(SanitizerError) as exc:
        sched.dequeue()
    assert exc.value.invariant == "queue-conservation"


def test_wfq_work_conservation_trips_on_lost_head_tag():
    sched = WfqScheduler((8, 4, 1), BUF, sanitize=True)
    sched.enqueue(_pkt(qos=0))
    # The class FIFO loses its only packet while the counters still say
    # one is queued — the scheduler finds nothing to serve and would
    # otherwise go idle with backlog, silently.
    sched._queues[0].clear()
    with pytest.raises(SanitizerError) as exc:
        sched.dequeue()
    assert exc.value.invariant == "wfq-work-conservation"


def test_conservation_clean_through_mixed_traffic():
    sched = WfqScheduler((8, 4, 1), 8 * 1500, sanitize=True)
    sent = 0
    for i in range(64):
        if sched.enqueue(_pkt(qos=i % 3)):
            sent += 1
        if i % 3 == 0:
            if sched.dequeue() is not None:
                sent -= 1
    while sched.dequeue() is not None:
        sent -= 1
    assert sent == 0  # drops were refused at the door, never half-queued


def test_pfabric_eviction_is_conserved():
    # Two big packets fill the buffer; a small arrival evicts the
    # largest.  The eviction counter keeps the identity intact.
    sched = PFabricScheduler(2 * 1500, num_classes=3, sanitize=True)
    assert sched.enqueue(_pkt(size=1500, remaining_mtus=40))
    assert sched.enqueue(_pkt(size=1500, remaining_mtus=30))
    assert sched.enqueue(_pkt(size=1500, remaining_mtus=1))  # evicts the 40
    assert sched._evictions == 1
    assert sched.dequeue().remaining_mtus == 1
    assert sched.dequeue().remaining_mtus == 30
    assert sched.dequeue() is None


# ----------------------------------------------------------------------
# WFQ virtual-time monotonicity
# ----------------------------------------------------------------------
def test_wfq_virtual_time_trips_on_clock_corruption():
    sched = WfqScheduler((8, 4, 1), BUF, sanitize=True)
    sched.enqueue(_pkt(qos=2))  # small weight -> large finish tag
    # Corrupt V above every pending tag — the shape of a bad reset.
    sched._virtual_time = 1e12
    with pytest.raises(SanitizerError) as exc:
        sched.dequeue()
    assert exc.value.invariant == "wfq-virtual-time"
    prov = exc.value.provenance
    assert prov["finish_tag"] < prov["virtual_time"]
    assert prov["qos"] == 2


def test_wfq_virtual_time_clean_across_busy_periods():
    sched = WfqScheduler((8, 4, 1), BUF, sanitize=True)
    for _ in range(2):  # two busy periods, V resets between them
        for i in range(16):
            sched.enqueue(_pkt(qos=i % 3))
        while sched.dequeue() is not None:
            pass
    # Exact reset sentinel, not a tag comparison — hence the suppression.
    assert sched._virtual_time == 0.0  # simlint: ignore[SIM003]


# ----------------------------------------------------------------------
# Admit-probability bounds
# ----------------------------------------------------------------------
def _controller(**kw):
    slo_map = SLOMap.for_three_levels(50_000, 200_000)
    return AdmissionController(slo_map, **kw), int(QoS.HIGH)


def test_p_admit_bounds_trip_on_corruption():
    ac, high = _controller(sanitize=True)
    ac._state[high].p_admit = 1.5
    with pytest.raises(SanitizerError) as exc:
        ac.on_rpc_issue_qos(high)
    assert exc.value.invariant == "admit-probability-bounds"
    assert exc.value.provenance["qos"] == high
    assert "1.5" in str(exc.value)


def test_p_admit_bounds_trip_after_update():
    ac, high = _controller(sanitize=True)
    ac._state[high].p_admit = -0.25
    with pytest.raises(SanitizerError) as exc:
        # SLO-met path: additive increase is window-gated so the
        # corrupted value survives the update and the post-check fires.
        # (The miss path would clamp to params.floor and self-repair.)
        ac.on_rpc_completion(rnl_ns=1_000, size_mtus=1, qos_run=high)
    assert exc.value.invariant == "admit-probability-bounds"
    assert exc.value.provenance["size_mtus"] == 1


def test_p_admit_clean_through_aimd_cycles():
    ac, high = _controller(sanitize=True)
    for i in range(500):
        ac.on_rpc_issue_qos(high)
        rnl = 10**9 if i % 3 == 0 else 1_000
        ac.on_rpc_completion(rnl_ns=rnl, size_mtus=4, qos_run=high)
    assert 0.0 <= ac.p_admit(high) <= 1.0


# ----------------------------------------------------------------------
# Behavior preservation: sanitize on/off digest parity
# ----------------------------------------------------------------------
def test_sanitized_run_is_bit_identical(monkeypatch):
    from tests.test_perf_determinism import _run_star

    monkeypatch.delenv(SANITIZE_ENV_VAR, raising=False)
    plain = _run_star(4.0, 11)
    monkeypatch.setenv(SANITIZE_ENV_VAR, "1")
    sanitized = _run_star(4.0, 11)
    assert plain == sanitized
    assert plain["completed"] > 0  # the run actually did work

"""Unit tests for the Homa and pFabric baselines."""

from repro.baselines.homa import (
    DEFAULT_UNSCHEDULED_MTUS,
    HOMA_PRIORITY_LEVELS,
    HomaEndpoint,
    homa_priority,
    homa_scheduler_factory,
)
from repro.baselines.pfabric import (
    DEFAULT_PFABRIC_WINDOW,
    pfabric_scheduler_factory,
    pfabric_transport_config,
)
from repro.net.packet import MTU_BYTES
from repro.net.queues import PFabricScheduler, StrictPriorityScheduler
from repro.net.topology import build_star
from repro.sim.engine import Simulator, ns_from_ms
from repro.transport.base import Message


# ----------------------------------------------------------------------
# Homa
# ----------------------------------------------------------------------
def test_homa_priority_buckets_monotone():
    prios = [homa_priority(r) for r in (1, 2, 4, 8, 16, 32, 64, 65, 10_000)]
    assert prios == sorted(prios)
    assert prios[0] == 0
    assert prios[-1] == HOMA_PRIORITY_LEVELS - 1


def make_homa_cluster(num_hosts=3):
    sim = Simulator()
    net = build_star(sim, num_hosts, homa_scheduler_factory(), line_rate_bps=100e9)
    eps = [HomaEndpoint(sim, h, line_rate_bps=100e9) for h in net.hosts]
    for a in eps:
        for b in eps:
            if a is not b:
                a.register_peer(b)
    return sim, eps


def test_homa_small_message_fully_unscheduled():
    sim, eps = make_homa_cluster()
    done = []
    msg = Message(dst=1, payload_bytes=2 * MTU_BYTES, qos=0,
                  on_complete=done.append)
    eps[0].send_message(msg)
    sim.run(until=ns_from_ms(1))
    assert done == [msg]
    assert eps[1].grants_sent == 0  # small: no grants needed


def test_homa_large_message_uses_grants():
    sim, eps = make_homa_cluster()
    done = []
    total_mtus = DEFAULT_UNSCHEDULED_MTUS + 20
    msg = Message(dst=1, payload_bytes=total_mtus * MTU_BYTES, qos=0,
                  on_complete=done.append)
    eps[0].send_message(msg)
    sim.run(until=ns_from_ms(2))
    assert done == [msg]
    assert eps[1].grants_sent == 20  # one per scheduled packet


def test_homa_flow_holds_no_state_for_completed_messages():
    """Regression: the sender used to record every multi-packet message
    in a table nothing read or pruned.  After N completions the flow's
    attributes must look as they did before the first message."""
    sim, eps = make_homa_cluster()
    flow = eps[0].flow_to(1, 0)

    def sizes():
        return {
            name: len(value)
            for name, value in vars(flow).items()
            if hasattr(value, "__len__") and not isinstance(value, str)
        }

    before = sizes()
    done = []
    for mtus in (1, DEFAULT_UNSCHEDULED_MTUS, DEFAULT_UNSCHEDULED_MTUS + 5) * 4:
        eps[0].send_message(
            Message(dst=1, payload_bytes=mtus * MTU_BYTES, qos=0,
                    on_complete=done.append)
        )
    sim.run(until=ns_from_ms(5))
    assert len(done) == 12
    assert not flow._messages and not flow._outstanding and not flow._pending
    assert sizes() == before


def test_homa_grants_favor_smallest_remaining():
    """SRPT: a late-arriving small message finishes before a big one."""
    sim, eps = make_homa_cluster()
    big_done, small_done = [], []
    big = Message(dst=2, payload_bytes=200 * MTU_BYTES, qos=0,
                  on_complete=big_done.append)
    eps[0].send_message(big)
    small = Message(dst=2, payload_bytes=20 * MTU_BYTES, qos=0,
                    on_complete=small_done.append)
    eps[1].send_message(small)
    sim.run(until=ns_from_ms(5))
    assert small_done and big_done
    assert small_done[0].completed_ns < big_done[0].completed_ns


def test_homa_scheduler_has_eight_levels():
    sched = homa_scheduler_factory()()
    assert isinstance(sched, StrictPriorityScheduler)
    assert sched.num_classes == HOMA_PRIORITY_LEVELS


# ----------------------------------------------------------------------
# pFabric
# ----------------------------------------------------------------------
def test_pfabric_factories():
    sched = pfabric_scheduler_factory()()
    assert isinstance(sched, PFabricScheduler)
    cfg = pfabric_transport_config()
    cc = cfg.cc_factory()
    assert cc.cwnd == DEFAULT_PFABRIC_WINDOW


def test_pfabric_small_wins_under_contention():
    """With SRPT queues and drops, a small message beats a large one
    issued at the same time toward the same receiver."""
    sim = Simulator()
    net = build_star(sim, 3, pfabric_scheduler_factory(), line_rate_bps=100e9)
    cfg = pfabric_transport_config(ack_bypass=True)
    from repro.transport.reliable import TransportEndpoint

    eps = [TransportEndpoint(sim, h, cfg) for h in net.hosts]
    for a in eps:
        for b in eps:
            if a is not b:
                a.register_peer(b)
    big_done, small_done = [], []
    big = Message(dst=2, payload_bytes=256 * MTU_BYTES, qos=0,
                  on_complete=big_done.append)
    small = Message(dst=2, payload_bytes=4 * MTU_BYTES, qos=0,
                    on_complete=small_done.append)
    eps[0].send_message(big)
    eps[1].send_message(small)
    sim.run(until=ns_from_ms(5))
    assert small_done and big_done
    assert small_done[0].completed_ns < big_done[0].completed_ns


def test_pfabric_recovers_from_srpt_drops():
    """Many concurrent messages overflow the tiny pFabric buffer; the
    fast RTO must still complete everything."""
    sim = Simulator()
    tiny = 8 * (MTU_BYTES + 64)  # ~8 packets: two 12-packet windows overflow it
    net = build_star(sim, 3, pfabric_scheduler_factory(tiny), line_rate_bps=100e9)
    cfg = pfabric_transport_config(ack_bypass=True)
    from repro.transport.reliable import TransportEndpoint

    eps = [TransportEndpoint(sim, h, cfg) for h in net.hosts]
    for a in eps:
        for b in eps:
            if a is not b:
                a.register_peer(b)
    done = []
    for src in (0, 1):
        for _ in range(20):
            eps[src].send_message(
                Message(dst=2, payload_bytes=16 * MTU_BYTES, qos=0,
                        on_complete=done.append)
            )
    sim.run(until=ns_from_ms(10))
    assert len(done) == 40
    drops = net.switch_ports[2].scheduler.stats.total_dropped
    assert drops > 0  # the buffer actually overflowed

"""Unit tests for topology builders."""

import pytest

from repro.net.packet import Packet
from repro.net.topology import build_star, build_two_tier, wfq_factory
from repro.sim.engine import Simulator


def test_star_builds_hosts_and_routes():
    sim = Simulator()
    net = build_star(sim, 4, wfq_factory((8, 4, 1)))
    assert net.num_hosts == 4
    assert len(net.switches) == 1
    switch = net.switches[0]
    assert set(switch.routes) == {0, 1, 2, 3}
    for h in net.hosts:
        assert h.nic is not None
        assert h.nic.peer is switch


def test_star_rejects_single_host():
    with pytest.raises(ValueError):
        build_star(Simulator(), 1, wfq_factory((4, 1)))


def test_star_end_to_end_delivery():
    sim = Simulator()
    net = build_star(sim, 3, wfq_factory((8, 4, 1)), line_rate_bps=1e9,
                     prop_delay_ns=100)
    got = []
    net.hosts[2].handler = got.append
    net.hosts[0].send(Packet(0, 2, 1000, qos=0))
    sim.run()
    assert len(got) == 1
    # Two hops: 2 serializations + 2 propagations.
    assert sim.now == 2 * 8000 + 2 * 100


def test_star_each_port_gets_fresh_scheduler():
    sim = Simulator()
    net = build_star(sim, 3, wfq_factory((4, 1)))
    schedulers = {id(p.scheduler) for p in net.host_ports.values()}
    schedulers |= {id(p.scheduler) for p in net.switch_ports.values()}
    assert len(schedulers) == 6


def test_two_tier_cross_tor_routing():
    sim = Simulator()
    net = build_two_tier(sim, num_tors=2, hosts_per_tor=2,
                         scheduler_factory=wfq_factory((8, 4, 1)),
                         line_rate_bps=1e9, uplink_oversubscription=2.0)
    assert net.num_hosts == 4
    got = []
    net.hosts[3].handler = got.append
    net.hosts[0].send(Packet(0, 3, 1000))  # tor0 -> spine -> tor1
    sim.run()
    assert len(got) == 1


def test_two_tier_same_tor_stays_local():
    sim = Simulator()
    net = build_two_tier(sim, num_tors=2, hosts_per_tor=2,
                         scheduler_factory=wfq_factory((8, 4, 1)))
    spine = net.switches[0]
    before = spine.packets_forwarded
    got = []
    net.hosts[1].handler = got.append
    net.hosts[0].send(Packet(0, 1, 1000))
    sim.run()
    assert len(got) == 1
    assert spine.packets_forwarded == before  # never left the ToR


def test_two_tier_uplink_oversubscribed():
    sim = Simulator()
    net = build_two_tier(sim, num_tors=2, hosts_per_tor=4,
                         scheduler_factory=wfq_factory((4, 1)),
                         line_rate_bps=100e9, uplink_oversubscription=2.0)
    tor0 = net.switches[1]
    uplink = tor0.ports[0]
    assert uplink.rate_bps == pytest.approx(4 * 100e9 / 2.0)


def test_two_tier_validation():
    with pytest.raises(ValueError):
        build_two_tier(Simulator(), 0, 2, wfq_factory((4, 1)))
    with pytest.raises(ValueError):
        build_two_tier(Simulator(), 2, 2, wfq_factory((4, 1)),
                       uplink_oversubscription=0)

"""Topology builders: star (single switch) and two-tier (ToR + spine).

Experiments in the paper run on a 3-node microbenchmark (two clients,
one server, one switch), 33/144-node all-to-all clusters, and a 20-node
testbed behind a single switch.  A star topology covers all of those;
the two-tier fabric adds the "overloads can occur anywhere" structure
(oversubscribed ToR uplinks) used in robustness tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.net.link import DEFAULT_LINE_RATE_BPS, DEFAULT_PROP_DELAY_NS, Port
from repro.net.node import Host, Switch
from repro.net.queues import Scheduler, WfqScheduler
from repro.sim.engine import Simulator

#: Builds a fresh scheduler for each port.
SchedulerFactory = Callable[[], Scheduler]


def wfq_factory(
    weights: Sequence[float], buffer_bytes: int = 4 * 1024 * 1024
) -> SchedulerFactory:
    """Factory producing a WFQ scheduler with the given weights per port."""
    frozen = tuple(weights)
    return lambda: WfqScheduler(frozen, buffer_bytes)


@dataclass
class Network:
    """A built topology: the simulator plus all hosts, switches, ports."""

    sim: Simulator
    hosts: List[Host] = field(default_factory=list)
    switches: List[Switch] = field(default_factory=list)
    host_ports: Dict[int, Port] = field(default_factory=dict)  # host NIC egress
    switch_ports: Dict[int, Port] = field(default_factory=dict)  # egress toward host id

    def host(self, host_id: int) -> Host:
        return self.hosts[host_id]

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)


def build_star(
    sim: Simulator,
    num_hosts: int,
    scheduler_factory: SchedulerFactory,
    line_rate_bps: float = DEFAULT_LINE_RATE_BPS,
    prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
    nic_scheduler_factory: Optional[SchedulerFactory] = None,
) -> Network:
    """N hosts around one output-queued switch.

    Every host gets a NIC egress port toward the switch and the switch
    gets one egress port per host.  ``nic_scheduler_factory`` defaults to
    the switch factory — the paper notes NICs support WFQs too.
    """
    if num_hosts < 2:
        raise ValueError("need at least two hosts")
    nic_factory = nic_scheduler_factory or scheduler_factory
    net = Network(sim=sim)
    switch = Switch(sim, "sw0")
    net.switches.append(switch)
    for host_id in range(num_hosts):
        host = Host(sim, host_id)
        nic = Port(
            sim,
            nic_factory(),
            rate_bps=line_rate_bps,
            prop_delay_ns=prop_delay_ns,
            name=f"nic{host_id}",
        )
        nic.connect(switch)
        host.attach_nic(nic)
        net.hosts.append(host)
        net.host_ports[host_id] = nic

        egress = Port(
            sim,
            scheduler_factory(),
            rate_bps=line_rate_bps,
            prop_delay_ns=prop_delay_ns,
            name=f"sw0->host{host_id}",
        )
        egress.connect(host)
        switch.add_port(egress)
        switch.set_route(host_id, egress)
        net.switch_ports[host_id] = egress
    return net


def build_two_tier(
    sim: Simulator,
    num_tors: int,
    hosts_per_tor: int,
    scheduler_factory: SchedulerFactory,
    line_rate_bps: float = DEFAULT_LINE_RATE_BPS,
    uplink_oversubscription: float = 2.0,
    prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
) -> Network:
    """ToR switches under a single spine, with oversubscribed uplinks.

    Uplink rate = hosts_per_tor * line_rate / oversubscription, so
    cross-ToR traffic can overload the fabric core even when edge links
    are idle — the "overloads can occur anywhere" scenario of §2.2.2.
    """
    if num_tors < 1 or hosts_per_tor < 1:
        raise ValueError("need at least one ToR with one host")
    if uplink_oversubscription <= 0:
        raise ValueError("oversubscription must be positive")
    net = Network(sim=sim)
    spine = Switch(sim, "spine")
    net.switches.append(spine)
    uplink_rate = hosts_per_tor * line_rate_bps / uplink_oversubscription

    host_id = 0
    for tor_idx in range(num_tors):
        tor = Switch(sim, f"tor{tor_idx}")
        net.switches.append(tor)
        # ToR -> spine uplink and spine -> ToR downlink.
        uplink = Port(sim, scheduler_factory(), rate_bps=uplink_rate,
                      prop_delay_ns=prop_delay_ns, name=f"tor{tor_idx}->spine")
        uplink.connect(spine)
        tor.add_port(uplink)
        downlink = Port(sim, scheduler_factory(), rate_bps=uplink_rate,
                        prop_delay_ns=prop_delay_ns, name=f"spine->tor{tor_idx}")
        downlink.connect(tor)
        spine.add_port(downlink)

        tor_host_ids = []
        for _ in range(hosts_per_tor):
            host = Host(sim, host_id)
            nic = Port(sim, scheduler_factory(), rate_bps=line_rate_bps,
                       prop_delay_ns=prop_delay_ns, name=f"nic{host_id}")
            nic.connect(tor)
            host.attach_nic(nic)
            net.hosts.append(host)
            net.host_ports[host_id] = nic

            egress = Port(sim, scheduler_factory(), rate_bps=line_rate_bps,
                          prop_delay_ns=prop_delay_ns,
                          name=f"tor{tor_idx}->host{host_id}")
            egress.connect(host)
            tor.add_port(egress)
            tor.set_route(host_id, egress)
            net.switch_ports[host_id] = egress
            tor_host_ids.append(host_id)
            host_id += 1

        # Hosts not on this ToR route via the uplink; fill in after all
        # ToRs exist (below), but record the spine route now.
        for hid in tor_host_ids:
            spine.set_route(hid, downlink)

    # Default route on every ToR: anything without an explicit host
    # route goes up to the spine.
    total_hosts = num_tors * hosts_per_tor
    for tor in net.switches[1:]:
        uplink = tor.ports[0]
        for hid in range(total_hosts):
            if hid not in tor.routes:
                tor.set_route(hid, uplink)
    return net

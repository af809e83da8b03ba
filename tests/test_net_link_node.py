"""Unit tests for ports, links, switches, and hosts."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net.link import Port
from repro.net.node import Host, Node, Switch
from repro.net.packet import Packet
from repro.net.queues import FifoScheduler, WfqScheduler
from repro.sim.engine import Simulator


class Sink(Node):
    def __init__(self, sim):
        super().__init__(sim, "sink")
        self.received = []

    def receive(self, pkt):
        self.received.append((self.sim.now, pkt))


def make_port(sim, rate=1e9, prop=100, buffer_bytes=10**6):
    port = Port(sim, FifoScheduler(buffer_bytes), rate_bps=rate, prop_delay_ns=prop)
    sink = Sink(sim)
    port.connect(sink)
    return port, sink


def test_serialization_time_exact():
    sim = Simulator()
    port, _ = make_port(sim, rate=1e9)  # 1 Gbps: 8 ns per byte
    assert port.serialization_ns(1000) == 8000
    assert port.serialization_ns(1) == 8


def test_serialization_cache_is_bounded_and_exact():
    from repro.net.link import _SER_CACHE_MAX

    sim = Simulator()
    port, sink = make_port(sim, rate=1e9, buffer_bytes=10**9)
    # A worst-case workload with a distinct size per packet must not
    # grow the memo past its cap, and every cached-or-recomputed
    # serialization time must equal the direct computation.
    sizes = list(range(64, 64 + 2 * _SER_CACHE_MAX))
    for size in sizes:
        port.send(Packet(0, 1, size))
    sim.run()
    assert len(port._ser_cache) <= _SER_CACHE_MAX
    assert len(sink.received) == len(sizes)
    for size, tx in port._ser_cache.items():
        assert tx == port.serialization_ns(size)


def test_single_packet_delivery_time():
    sim = Simulator()
    port, sink = make_port(sim, rate=1e9, prop=100)
    port.send(Packet(0, 1, 1000))
    sim.run()
    t, _ = sink.received[0]
    assert t == 8000 + 100  # serialization + propagation


def test_back_to_back_packets_pipeline():
    sim = Simulator()
    port, sink = make_port(sim, rate=1e9, prop=0)
    for _ in range(3):
        port.send(Packet(0, 1, 1000))
    sim.run()
    times = [t for t, _ in sink.received]
    assert times == [8000, 16000, 24000]


def test_port_work_conservation_after_idle():
    sim = Simulator()
    port, sink = make_port(sim, rate=1e9, prop=0)
    port.send(Packet(0, 1, 1000))
    sim.run()
    sim.schedule(0, port.send, Packet(0, 1, 1000))
    sim.run()
    assert [t for t, _ in sink.received] == [8000, 16000]


def test_port_counts_drops():
    sim = Simulator()
    port, _ = make_port(sim, buffer_bytes=1500)
    assert port.send(Packet(0, 1, 1000))  # dequeued straight into service
    assert port.send(Packet(0, 1, 1000))  # waits in the 1500 B buffer
    assert not port.send(Packet(0, 1, 1000))  # 2000 B would exceed it
    assert port.packets_dropped == 1


def test_unconnected_port_raises():
    sim = Simulator()
    port = Port(sim, FifoScheduler(1000))
    with pytest.raises(RuntimeError):
        port.send(Packet(0, 1, 100))


def test_port_rejects_bad_params():
    sim = Simulator()
    with pytest.raises(ValueError):
        Port(sim, FifoScheduler(1000), rate_bps=0)
    with pytest.raises(ValueError):
        Port(sim, FifoScheduler(1000), prop_delay_ns=-1)


def test_on_transmit_hooks_fire_per_packet():
    sim = Simulator()
    port, _ = make_port(sim)
    seen = []
    port.on_transmit.append(lambda pkt, now: seen.append(pkt.uid))
    a, b = Packet(0, 1, 100), Packet(0, 1, 100)
    port.send(a)
    port.send(b)
    sim.run()
    assert seen == [a.uid, b.uid]


def test_switch_routes_by_destination():
    sim = Simulator()
    switch = Switch(sim, "sw")
    ports = {}
    sinks = {}
    for dst in (1, 2):
        port, sink = make_port(sim)
        switch.add_port(port)
        switch.set_route(dst, port)
        ports[dst], sinks[dst] = port, sink
    switch.receive(Packet(0, 1, 100))
    switch.receive(Packet(0, 2, 100))
    switch.receive(Packet(0, 2, 100))
    sim.run()
    assert len(sinks[1].received) == 1
    assert len(sinks[2].received) == 2
    assert switch.packets_forwarded == 3


def test_switch_counts_unrouted():
    sim = Simulator()
    switch = Switch(sim, "sw")
    switch.receive(Packet(0, 99, 100))
    assert switch.packets_unrouted == 1


def test_host_dispatches_to_handler():
    sim = Simulator()
    host = Host(sim, 7)
    got = []
    host.handler = got.append
    host.receive(Packet(0, 7, 100))
    assert len(got) == 1
    assert host.packets_received == 1


def test_host_without_nic_raises():
    sim = Simulator()
    host = Host(sim, 0)
    with pytest.raises(RuntimeError):
        host.send(Packet(0, 1, 100))


def test_wfq_port_respects_weights_end_to_end():
    """Saturate a WFQ port with two backlogged classes and check the
    delivered byte ratio over a window matches the weights."""
    sim = Simulator()
    port = Port(sim, WfqScheduler((4, 1), 10**9), rate_bps=1e9, prop_delay_ns=0)
    sink = Sink(sim)
    port.connect(sink)
    for _ in range(200):
        port.send(Packet(0, 1, 1000, qos=0))
        port.send(Packet(0, 1, 1000, qos=1))
    sim.run(until=200 * 8000)  # enough for ~200 packets
    counts = [0, 0]
    for _, pkt in sink.received:
        counts[pkt.qos] += 1
    assert counts[0] / counts[1] == pytest.approx(4.0, rel=0.1)


# ----------------------------------------------------------------------
# Port timing oracle
# ----------------------------------------------------------------------
# (gap since the previous arrival, wire size).  A zero gap is a
# same-nanosecond arrival; gaps come in 500 ns steps and three of the
# sizes serialize in multiples of that at 1 Gbps, so arrivals often land
# exactly on a line-free instant.
_arrivals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=24).map(lambda steps: steps * 500),
        st.sampled_from((64, 500, 1000, 1500)),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(
    arrivals=_arrivals,
    prop=st.sampled_from((0, 1, 100, 5_000)),
    buffer_bytes=st.sampled_from((2_000, 6_000, 10**9)),
)
# Arrivals exactly when the line frees, with and without a queue behind.
@example(arrivals=[(0, 1000), (8000, 1000), (8000, 500), (0, 500)], prop=100,
         buffer_bytes=10**9)
@example(arrivals=[(0, 1000), (0, 1000), (8000, 1000), (8000, 64)], prop=0,
         buffer_bytes=2_000)
def test_fifo_port_timing_is_the_lindley_recursion(arrivals, prop, buffer_bytes):
    """Whatever events the port uses internally, a FIFO port is a
    single-server queue: ``depart_k = max(arrive_k, depart_{k-1}) +
    tx(size_k)`` over the packets it accepted, delivery one propagation
    delay later — so the line never idles with backlog — and after the
    drain its counters say exactly what was accepted."""
    sim = Simulator()
    port, sink = make_port(sim, rate=1e9, prop=prop, buffer_bytes=buffer_bytes)
    starts = []
    port.on_transmit.append(lambda pkt, now: starts.append((now, pkt.uid)))
    accepted = []  # (arrival time, packet) in arrival order

    def offer(pkt):
        if port.send(pkt):
            accepted.append((sim.now, pkt))

    at = 0
    for gap, size in arrivals:
        at += gap
        sim.schedule(at - sim.now, offer, Packet(0, 1, size))
    sim.run()

    expect_starts, expect_deliveries = [], []
    line_free = 0
    for arrived, pkt in accepted:
        start = max(arrived, line_free)
        line_free = start + port.serialization_ns(pkt.size_bytes)
        expect_starts.append((start, pkt.uid))
        expect_deliveries.append((line_free + prop, pkt.uid))
    assert starts == expect_starts
    assert [(t, pkt.uid) for t, pkt in sink.received] == expect_deliveries
    assert port.packets_sent == len(accepted)
    assert port.bytes_sent == sum(pkt.size_bytes for _, pkt in accepted)
    assert port.packets_dropped == len(arrivals) - len(accepted)
    assert (port.scheduler.packets_queued, port.scheduler.bytes_queued) == (0, 0)

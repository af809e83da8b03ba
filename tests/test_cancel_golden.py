"""Literal goldens for ``Flow.cancel_message`` on a partly sent flow.

A flow packetises only its head message, so cancelling must leave the
next message starting at packet 0 when the head goes, and must leave the
head's progress alone when a queued or already fully sent message goes.
Each case pins every data packet the flow sends as ``(message, seq,
send time)`` and every completion as ``(message, time, terminated)``;
messages are named by letter because message ids are process-global.

The deadline cases reach ``cancel_message`` through the D3/PDQ arbiter:
the registered head message is terminated part-way through, and an
unregistered multi-packet successor rides on the same rate-controlled
flow.
"""

import pytest

from repro.baselines.deadline import DeadlineEndpoint, PortArbiter
from repro.net.packet import MTU_BYTES
from repro.net.queues import FifoScheduler
from repro.net.topology import build_star, wfq_factory
from repro.sim.engine import Simulator, ns_from_us
from repro.transport.base import FixedWindowCC, Message
from repro.transport.reliable import TransportConfig, TransportEndpoint


class _Recorder:
    """Names messages and records the flow's sends and completions."""

    def __init__(self, sim, flow):
        self.sim = sim
        self.names = {}
        self.sent = []
        self.done = []
        nic_send = flow._nic_send

        def send(pkt):
            self.sent.append((self.names[pkt.msg_id], pkt.seq, sim.now))
            nic_send(pkt)

        flow._nic_send = send

    def message(self, name, payload_bytes, **kwargs):
        msg = Message(dst=1, payload_bytes=payload_bytes, qos=0,
                      on_complete=self._on_complete, **kwargs)
        self.names[msg.msg_id] = name
        return msg

    def _on_complete(self, msg):
        self.done.append((self.names[msg.msg_id], self.sim.now, msg.terminated))


def _direct(cancel, at_ns):
    """Messages a (5 MTU), b (3), c (2) on one two-packet-window flow;
    ``cancel`` is cancelled at ``at_ns``."""
    sim = Simulator()
    net = build_star(sim, 2, wfq_factory((8, 4, 1)))
    config = TransportConfig(cc_factory=lambda: FixedWindowCC(2.0), ack_bypass=True)
    eps = [TransportEndpoint(sim, h, config) for h in net.hosts]
    eps[0].register_peer(eps[1])
    eps[1].register_peer(eps[0])
    flow = eps[0].flow_to(1, 0)
    rec = _Recorder(sim, flow)
    msgs = {}
    for name, mtus in (("a", 5), ("b", 3), ("c", 2)):
        msgs[name] = rec.message(name, mtus * MTU_BYTES - 100)
        flow.send_message(msgs[name])
    sim.run(until=at_ns)
    assert flow.cancel_message(msgs[cancel].msg_id)
    assert not flow.cancel_message(msgs[cancel].msg_id)
    sim.run()
    assert not flow._outstanding and not flow._pending
    return rec


def test_cancel_partly_sent_head_restarts_successor_at_packet_zero():
    rec = _direct("a", 3_000)
    assert rec.sent == [
        ("a", 0, 0), ("a", 1, 0),
        ("b", 0, 3_000), ("b", 1, 3_000), ("b", 2, 6_666),
        ("c", 0, 6_999), ("c", 1, 10_316),
    ]
    assert rec.done == [("a", 3_000, True), ("b", 10_316, False), ("c", 13_966, False)]


def test_cancel_queued_message_keeps_head_progress():
    rec = _direct("b", 3_000)
    assert rec.sent == [
        ("a", 0, 0), ("a", 1, 0), ("a", 2, 3_666), ("a", 3, 3_999),
        ("a", 4, 7_332),
        ("c", 0, 7_665), ("c", 1, 10_982),
    ]
    assert rec.done == [("b", 3_000, True), ("a", 10_982, False), ("c", 14_632, False)]


def test_cancel_fully_sent_message_keeps_partly_sent_successor():
    rec = _direct("a", 9_000)
    assert rec.sent == [
        ("a", 0, 0), ("a", 1, 0), ("a", 2, 3_666), ("a", 3, 3_999),
        ("a", 4, 7_332),
        ("b", 0, 7_665), ("b", 1, 9_000), ("b", 2, 11_331),
        ("c", 0, 12_666), ("c", 1, 14_981),
    ]
    assert rec.done == [("a", 9_000, True), ("b", 14_981, False), ("c", 18_631, False)]


def _deadline(mode):
    """Head a (24 MTU, registered with a deadline) and successor b
    (3 MTU, unregistered) on one rate-controlled flow at 10 Gbps.

    D3 quenches a at its 60 us deadline.  PDQ admits a (85 us) but
    dooms it when c's registration from another host, at 30 us,
    reruns the allocation with a's unacknowledged bytes."""
    capacity = 10e9
    sim = Simulator()
    net = build_star(sim, 3, lambda: FifoScheduler(8 << 20), line_rate_bps=capacity)
    arbiters = {h.host_id: PortArbiter(sim, capacity, mode=mode) for h in net.hosts}
    eps = [DeadlineEndpoint(sim, h, arbiters) for h in net.hosts]
    for a in eps:
        for b in eps:
            if a is not b:
                a.register_peer(b)
    flow = eps[0].flow_to(1, 0)
    rec = _Recorder(sim, flow)
    a = rec.message("a", 24 * MTU_BYTES,
                    deadline_ns=ns_from_us(60 if mode == "d3" else 85))
    b = rec.message("b", 3 * MTU_BYTES - 7)
    flow.rate_bps = 0.0
    flow.send_message(a)
    flow.send_message(b)
    arbiters[1].register(a, flow)
    if mode == "pdq":
        c = rec.message("c", 2 * MTU_BYTES, deadline_ns=ns_from_us(200))
        sim.post(ns_from_us(30), eps[2].send_message, c)
    sim.run(until=ns_from_us(400))
    assert arbiters[1].terminated_count == 1 and not arbiters[1].flows
    assert not flow._outstanding and not flow._pending
    return rec


_A_PACED = [("a", seq, seq * 3_503) for seq in range(18)]


@pytest.mark.parametrize("mode, sent, done", [
    ("d3",
     _A_PACED + [("b", 0, 63_054), ("b", 1, 66_557), ("b", 2, 70_060)],
     [("a", 60_000, True), ("b", 78_806, False)]),
    ("pdq",
     _A_PACED[:9] + [("b", 0, 31_527), ("b", 1, 35_030), ("b", 2, 38_533)],
     [("a", 30_000, True), ("c", 46_766, False), ("b", 53_416, False)]),
])
def test_deadline_termination_of_partly_sent_head(mode, sent, done):
    rec = _deadline(mode)
    assert rec.sent == sent
    assert rec.done == done

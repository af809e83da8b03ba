"""Unit/integration tests for the reliable transport."""

import pytest

from repro.net.packet import MTU_BYTES, mtus_for_bytes
from repro.net.topology import build_star, wfq_factory
from repro.sim.engine import Simulator, ns_from_ms, ns_from_us
from repro.transport.base import FixedWindowCC, Message
from repro.transport.reliable import TransportConfig, TransportEndpoint
from repro.transport.swift import SwiftCC


def make_pair(num_hosts=2, config=None, buffer_bytes=4 * 1024 * 1024):
    sim = Simulator()
    net = build_star(sim, num_hosts, wfq_factory((8, 4, 1), buffer_bytes))
    config = config or TransportConfig()
    endpoints = [TransportEndpoint(sim, h, config) for h in net.hosts]
    for a in endpoints:
        for b in endpoints:
            if a is not b:
                a.register_peer(b)
    return sim, net, endpoints


def test_single_packet_message_completes():
    sim, _, eps = make_pair()
    done = []
    msg = Message(dst=1, payload_bytes=100, qos=0, on_complete=done.append)
    eps[0].send_message(msg)
    sim.run()
    assert done == [msg]
    assert msg.completed_ns is not None
    assert msg.rnl_ns > 0


def test_multi_packet_message_rnl_spans_whole_transfer():
    sim, _, eps = make_pair()
    msg = Message(dst=1, payload_bytes=8 * MTU_BYTES, qos=0)
    eps[0].send_message(msg)
    sim.run()
    assert msg.completed_ns is not None
    # RNL must cover at least 8 serializations at 100 Gbps (~2.6 us).
    assert msg.rnl_ns >= 8 * 330


def test_message_sizes():
    msg = Message(dst=1, payload_bytes=32 * 1024, qos=0)
    assert msg.size_mtus == 8
    assert msg.packet_payload(0) == MTU_BYTES
    assert msg.packet_payload(7) == MTU_BYTES
    with pytest.raises(IndexError):
        msg.packet_payload(8)


@pytest.mark.parametrize("payload", [1, 4095, 4096, 4097, 32768])
def test_message_size_mtus_matches_mtus_for_bytes(payload):
    msg = Message(dst=1, payload_bytes=payload, qos=0)
    assert msg.size_mtus == mtus_for_bytes(payload)
    assert sum(msg.packet_payload(s) for s in range(msg.size_mtus)) == payload


def test_partial_final_packet():
    msg = Message(dst=1, payload_bytes=MTU_BYTES + 10, qos=0)
    assert msg.size_mtus == 2
    assert msg.packet_payload(0) == MTU_BYTES
    assert msg.packet_payload(1) == 10


def test_message_rejects_empty_payload():
    with pytest.raises(ValueError):
        Message(dst=1, payload_bytes=0, qos=0)


def test_rnl_unavailable_before_completion():
    msg = Message(dst=1, payload_bytes=100, qos=0)
    with pytest.raises(RuntimeError):
        _ = msg.rnl_ns


def test_messages_complete_in_fifo_order_per_flow():
    sim, _, eps = make_pair()
    done = []
    msgs = [
        Message(dst=1, payload_bytes=2 * MTU_BYTES, qos=0,
                on_complete=lambda m: done.append(m.msg_id))
        for _ in range(5)
    ]
    for m in msgs:
        eps[0].send_message(m)
    sim.run()
    assert done == [m.msg_id for m in msgs]


def test_flows_keyed_by_dst_and_qos():
    sim, _, eps = make_pair(num_hosts=3)
    eps[0].send_message(Message(dst=1, payload_bytes=100, qos=0))
    eps[0].send_message(Message(dst=1, payload_bytes=100, qos=2))
    eps[0].send_message(Message(dst=2, payload_bytes=100, qos=0))
    assert len(eps[0].flows) == 3
    sim.run()


def test_retransmission_recovers_from_drops():
    """A tiny switch buffer forces drops; RTO must recover them all."""
    config = TransportConfig(
        cc_factory=lambda: FixedWindowCC(64.0), rto_ns=50_000, ack_bypass=True
    )
    sim, net, eps = make_pair(config=config, buffer_bytes=3 * (MTU_BYTES + 64))
    done = []
    for _ in range(4):
        eps[0].send_message(
            Message(dst=1, payload_bytes=8 * MTU_BYTES, qos=0,
                    on_complete=done.append)
        )
    sim.run(until=ns_from_ms(50))
    assert len(done) == 4
    flow = eps[0].flow_to(1, 0)
    assert flow.retransmitted_packets > 0


def test_acked_payload_accounting():
    sim, _, eps = make_pair()
    eps[0].send_message(Message(dst=1, payload_bytes=3 * MTU_BYTES, qos=1))
    sim.run()
    flow = eps[0].flow_to(1, 1)
    assert flow.acked_payload_bytes == 3 * MTU_BYTES
    assert eps[0].acked_payload_by_qos[1] == 3 * MTU_BYTES


def test_remaining_payload_bytes_decreases():
    sim, _, eps = make_pair()
    msg = Message(dst=1, payload_bytes=4 * MTU_BYTES, qos=0)
    flow = eps[0].flow_to(1, 0)
    flow.send_message(msg)
    assert flow.remaining_payload_bytes(msg.msg_id) == 4 * MTU_BYTES
    sim.run()
    assert flow.remaining_payload_bytes(msg.msg_id) == 0  # completed


def test_cancel_message_terminates_and_notifies():
    sim, _, eps = make_pair()
    done = []
    msg = Message(dst=1, payload_bytes=64 * MTU_BYTES, qos=0,
                  on_complete=done.append)
    flow = eps[0].flow_to(1, 0)
    flow.send_message(msg)
    sim.run(max_events=5)  # partially transmitted
    assert flow.cancel_message(msg.msg_id)
    assert msg.terminated
    assert done == [msg]
    assert flow.remaining_payload_bytes(msg.msg_id) == 0
    # Cancelling again is a no-op.
    assert not flow.cancel_message(msg.msg_id)
    sim.run()


def test_cancel_unblocks_next_message():
    sim, _, eps = make_pair()
    done = []
    big = Message(dst=1, payload_bytes=128 * MTU_BYTES, qos=0)
    small = Message(dst=1, payload_bytes=MTU_BYTES, qos=0,
                    on_complete=done.append)
    flow = eps[0].flow_to(1, 0)
    flow.send_message(big)
    flow.send_message(small)
    sim.run(max_events=3)
    flow.cancel_message(big.msg_id)
    sim.run()
    assert done == [small]


def test_ack_bypass_and_network_acks_agree_on_completion():
    for bypass in (True, False):
        config = TransportConfig(ack_bypass=bypass)
        sim, _, eps = make_pair(config=config)
        done = []
        eps[0].send_message(
            Message(dst=1, payload_bytes=4 * MTU_BYTES, qos=0,
                    on_complete=done.append)
        )
        sim.run()
        assert len(done) == 1, f"bypass={bypass}"


def test_swift_backoff_limits_inflight():
    """With a congested port, Swift should keep per-flow inflight far
    below the open-loop backlog."""
    config = TransportConfig(cc_factory=lambda: SwiftCC(), ack_bypass=True)
    sim, _, eps = make_pair(num_hosts=3, config=config)
    for src in (0, 1):
        for _ in range(50):
            eps[src].send_message(Message(dst=2, payload_bytes=8 * MTU_BYTES, qos=0))
    sim.run(until=ns_from_us(300))
    for src in (0, 1):
        flow = eps[src].flow_to(2, 0)
        assert flow.inflight <= flow.cc.cwnd + 1


def test_transport_config_validation():
    with pytest.raises(ValueError):
        TransportConfig(base_rtt_ns=0)
    with pytest.raises(ValueError):
        TransportConfig(rto_ns=0)


def test_backlog_counts_unsent_messages():
    sim, _, eps = make_pair()
    flow = eps[0].flow_to(1, 0)
    for _ in range(10):
        flow.send_message(Message(dst=1, payload_bytes=64 * MTU_BYTES, qos=0))
    assert flow.backlog_messages > 0
    assert eps[0].total_backlog_messages() == flow.backlog_messages
    sim.run()
    assert flow.backlog_messages == 0

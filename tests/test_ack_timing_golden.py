"""Literal ACK timings on an idle star.

One flow carries a 1-MTU and an 8-MTU message from host 0 to host 1.
Every ``on_ack`` is pinned by when it fired and by the RTT sample it
handed the congestion controller, for the three ways an ACK gets back:
bypassed (``ack_bypass=True``, every cluster figure), in-band through
the reverse path, and bypassed under :class:`HomaEndpoint`, whose
``receive`` also schedules grants.  Where the receiving endpoint's
``receive`` is part of the model (in-band ACKs, Homa) it must run at the
packet's true arrival time; with plain bypassed ACKs nothing observes
the arrival, so only the ACK side is pinned there.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Tuple

from repro.baselines.homa import HomaEndpoint, homa_scheduler_factory
from repro.net.packet import MTU_BYTES, Packet
from repro.net.topology import build_star, wfq_factory
from repro.sim.engine import Simulator
from repro.transport.base import Message
from repro.transport.reliable import TransportConfig, TransportEndpoint
from repro.transport.swift import SwiftCC

# 100 Gbps, 500 ns per hop: a 4160 B data packet serializes in 333 ns,
# a 64 B control packet in 5 ns.
_DATA_TX, _CTRL_TX, _PROP = 333, 5, 500


class _RecordingCC(SwiftCC):
    """Swift, plus a log of every ``(now, rtt)`` it is handed."""

    def __init__(self, log: List[Tuple[int, int]]) -> None:
        super().__init__()
        self._log = log

    def on_ack(self, rtt_ns: int, now_ns: int, acked_packets: int = 1) -> None:
        self._log.append((now_ns, rtt_ns))
        super().on_ack(rtt_ns, now_ns, acked_packets)


def _run(
    make_endpoint: Callable[..., TransportEndpoint],
    scheduler_factory: Any,
    ack_bypass: bool,
) -> Dict[str, Any]:
    sim = Simulator()
    net = build_star(sim, 2, scheduler_factory)
    acks: List[Tuple[int, int]] = []
    config = TransportConfig(cc_factory=lambda: _RecordingCC(acks), ack_bypass=ack_bypass)
    endpoints = [make_endpoint(sim, host, config) for host in net.hosts]
    endpoints[0].register_peer(endpoints[1])
    endpoints[1].register_peer(endpoints[0])

    received: List[Tuple[int, int, str, int]] = []  # (now, host, kind, seq)
    for host in net.hosts:

        def spy(pkt: Packet, host_id: int = host.host_id, inner: Any = host.handler) -> None:
            received.append((sim.now, host_id, pkt.kind.name, pkt.seq))
            inner(pkt)

        host.handler = spy

    done: List[Tuple[int, int]] = []
    for mtus in (1, 8):
        endpoints[0].send_message(
            Message(
                dst=1,
                payload_bytes=mtus * MTU_BYTES,
                qos=0,
                on_complete=lambda m, n=mtus: done.append((n, sim.now)),
            )
        )
    sim.run()
    return {"acks": acks, "received": received, "done": done}


# Everything leaves at t=0 except the ninth packet (Swift's initial
# window is 8; it goes when the first ACK lands), so an RTT sample equals
# its ACK's fire time.  Packet k of the first eight crosses two
# store-and-forward hops behind its predecessors.
_ARRIVALS = [2 * (_DATA_TX + _PROP) + k * _DATA_TX for k in range(8)]


def _at(received: List[Tuple[int, int, str, int]], host: int, kind: str) -> List[Tuple[int, int]]:
    return [(t, seq) for t, h, k, seq in received if (h, k) == (host, kind)]


def test_bypassed_acks_fire_half_a_base_rtt_after_arrival() -> None:
    out = _run(TransportEndpoint, wfq_factory((8, 4, 1)), ack_bypass=True)
    assert out["acks"] == [
        (3666, 3666),
        (3999, 3999),
        (4332, 4332),
        (4665, 4665),
        (4998, 4998),
        (5331, 5331),
        (5664, 5664),
        (5997, 5997),
        (7332, 3666),
    ]
    # ACK = arrival + base_rtt // 2; the ninth packet left at 3666.
    assert [t for t, _ in out["acks"]] == [a + 2000 for a in _ARRIVALS + [3666 + 1666]]
    assert out["done"] == [(1, 3666), (8, 7332)]


def test_in_band_acks_cross_the_reverse_path() -> None:
    out = _run(TransportEndpoint, wfq_factory((8, 4, 1)), ack_bypass=False)
    assert out["acks"] == [
        (2676, 2676),
        (3009, 3009),
        (3342, 3342),
        (3675, 3675),
        (4008, 4008),
        (4341, 4341),
        (4674, 4674),
        (5007, 5007),
        (5352, 2676),
    ]
    # receive() saw every data packet at its true arrival time ...
    data = _at(out["received"], 1, "DATA")
    assert data == list(zip(_ARRIVALS + [2676 + 1666], [0, 0, 1, 2, 3, 4, 5, 6, 7]))
    # ... and every ACK packet two control-packet hops after that, which
    # is the instant on_ack ran.
    ack_arrivals = [t for t, _ in _at(out["received"], 0, "ACK")]
    assert ack_arrivals == [t + 2 * (_CTRL_TX + _PROP) for t, _ in data]
    assert ack_arrivals == [t for t, _ in out["acks"]]
    assert out["done"] == [(1, 2676), (8, 5352)]


def test_homa_keeps_arrivals_grants_and_bypassed_acks() -> None:
    def make(sim: Simulator, host: Any, config: TransportConfig) -> HomaEndpoint:
        # A 4-MTU unscheduled window, so the 8-MTU message needs grants.
        return HomaEndpoint(sim, host, config, unscheduled_mtus=4)

    out = _run(make, homa_scheduler_factory(), ack_bypass=True)
    assert out["acks"] == [
        (3666, 3666),
        (3999, 3999),
        (4332, 4332),
        (4665, 4665),
        (4998, 4998),
        (7002, 3666),
        (7335, 3672),
        (7668, 3678),
        (8001, 3684),
    ]
    # HomaEndpoint.receive schedules grants off data arrivals, so it must
    # still run at the true arrival time of every packet, GRANTs included.
    data = _at(out["received"], 1, "DATA")
    assert data == [
        (1666, 0),
        (1999, 0),
        (2332, 1),
        (2665, 2),
        (2998, 3),
        (5002, 4),
        (5335, 5),
        (5668, 6),
        (6001, 7),
    ]
    assert _at(out["received"], 0, "GRANT") == [(3336, 4), (3663, 5), (3990, 6), (4317, 7)]
    assert [t for t, _ in out["acks"]] == [t + 2000 for t, _ in data]
    assert out["done"] == [(1, 3666), (8, 8001)]

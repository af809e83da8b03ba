"""Golden for the tracer's packet -> RPC join.

Packet-level spans (queue, tx, drop, retransmit) name the RPC whose
critical path they sit on.  This pins, for one fixed traced incast with
drops and retransmissions, how many spans of each kind every RPC owns,
plus the spans that resolve to no RPC (a bare transport message rides
the same fabric and must stay an orphan).  RPC ids are process-global,
so each RPC is named by its position in issue order, not by its id.
``python tests/test_trace_join_golden.py`` prints fresh literals.
"""

import hashlib
import json

from repro.core.admission import AdmissionParams
from repro.core.qos import Priority
from repro.core.slo import SLOMap
from repro.net.packet import MTU_BYTES
from repro.net.topology import build_star, wfq_factory
from repro.obs.runtime import ObsContext, activate, deactivate
from repro.obs.trace import Tracer
from repro.rpc.stack import MetricsCollector, RpcStack
from repro.sim.engine import Simulator, ns_from_us
from repro.transport.base import Message
from repro.transport.reliable import TransportConfig, TransportEndpoint

#: sha256 of the per-RPC span counts, and the orphan counts.
JOIN_DIGEST = "7254ec9eb00a619d2bc15119a3c1eada25dad541208bbc6ecbed55b690fd367b"
ORPHANS = {"queue": 16, "tx": 16, "drop": 1, "retransmit": 1}


def _traced_incast() -> Tracer:
    """Three senders incast 16 KiB RPCs into 24 KiB port buffers, with
    network ACKs and a short RTO; host 0 also sends one bare message."""
    tracer = Tracer()
    activate(ObsContext(tracer=tracer))
    try:
        sim = Simulator()
        net = build_star(sim, 4, wfq_factory((8, 4, 1), 24 * 1024))
        slo_map = SLOMap.for_three_levels(ns_from_us(15), ns_from_us(25))
        config = TransportConfig(rto_ns=ns_from_us(40))
        endpoints = [TransportEndpoint(sim, h, config) for h in net.hosts]
        metrics = MetricsCollector()
        stacks = [
            RpcStack(sim, net.hosts[i], endpoints[i], slo_map,
                     AdmissionParams(), metrics, seed=i)
            for i in range(3)
        ]
        for k in range(6):
            for i, stack in enumerate(stacks):
                prio = (Priority.PC, Priority.NC, Priority.BE)[(i + k) % 3]
                sim.schedule(k * 1_000, stack.issue, 3, prio, 16 * 1024)
        bare = Message(dst=3, payload_bytes=4 * MTU_BYTES, qos=1)
        sim.schedule(500, endpoints[0].send_message, bare)
        sim.run()
    finally:
        deactivate()
    return tracer


def _join_table(tracer: Tracer):
    rank = {span.rpc_id: i for i, span in enumerate(tracer.rpc_spans)}
    counts = {i: [0, 0, 0, 0] for i in rank.values()}
    orphans = {"queue": 0, "tx": 0, "drop": 0, "retransmit": 0}
    streams = (
        ("queue", tracer.queue_spans),
        ("tx", tracer.tx_spans),
        ("drop", tracer.drops),
        ("retransmit", tracer.flow_retransmits),
    )
    for column, (name, spans) in enumerate(streams):
        for span in spans:
            i = rank.get(span.rpc_id)
            if i is None:
                assert span.rpc_id == 0, "a span names an RPC with no span"
                orphans[name] += 1
            else:
                counts[i][column] += 1
    table = [[i, *counts[i]] for i in sorted(counts)]
    blob = json.dumps(table, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest(), orphans, table


def test_packet_spans_join_to_their_rpcs():
    digest, orphans, table = _join_table(_traced_incast())
    # The scenario must exercise every stream it pins.
    assert len(table) == 18
    assert all(sum(row[1:]) for row in table)
    assert any(row[3] for row in table), "no drop joined to an RPC"
    assert any(row[4] for row in table), "no retransmit joined to an RPC"
    assert orphans == ORPHANS
    assert digest == JOIN_DIGEST


if __name__ == "__main__":
    digest, orphans, table = _join_table(_traced_incast())
    for row in table:
        print(row)
    print(f'JOIN_DIGEST = "{digest}"')
    print(f"ORPHANS = {orphans}")

"""Per-RPC object footprint: issuing an RPC allocates one object.

The collector retains every issued RPC for the whole run, so what one
issue leaves behind bounds how long a run fits in memory.  The RPC
object is itself the transport message the flow queues, packetises and
completes, and the completion callback is one bound method per stack.
An active tracer keeps that same object as the RPC's span.  A queued
RPC is in its flow's queue and in no dict: the flow maps only the
messages with packets on the wire.
"""

import gc
import sys

from repro.core.admission import AdmissionParams
from repro.core.qos import Priority
from repro.core.slo import SLOMap
from repro.net.topology import build_star, wfq_factory
from repro.obs.runtime import ObsContext, activate, deactivate
from repro.obs.trace import Tracer
from repro.rpc.message import Rpc
from repro.rpc.stack import MetricsCollector, RpcStack
from repro.sim.engine import Simulator, ns_from_us
from repro.transport.base import FixedWindowCC
from repro.transport.reliable import TransportConfig, TransportEndpoint


def test_issue_into_a_full_window_allocates_one_object_per_rpc():
    _assert_one_object_per_issue()


def test_traced_issue_allocates_one_object_per_rpc():
    activate(ObsContext(tracer=Tracer()))
    try:
        _assert_one_object_per_issue()
    finally:
        deactivate()


def test_queued_rpc_is_in_no_dict_and_rpc_has_15_slots():
    _, flow, rpcs = _full_window()
    assert [rpc for rpc in rpcs if rpc.msg_id in flow._messages] == [rpcs[0]]
    assert list(flow._pending) == rpcs[1:]
    slots = [name for cls in Rpc.__mro__ for name in getattr(cls, "__slots__", ())]
    assert len(slots) == 15
    assert sys.getsizeof(rpcs[0]) == 152


def _full_window():
    sim = Simulator()
    net = build_star(sim, 2, wfq_factory((8, 4, 1)))
    slo_map = SLOMap.for_three_levels(ns_from_us(15), ns_from_us(25))
    config = TransportConfig(cc_factory=lambda: FixedWindowCC(1.0), ack_bypass=True)
    endpoints = [TransportEndpoint(sim, h, config) for h in net.hosts]
    stack = RpcStack(sim, net.hosts[0], endpoints[0], slo_map,
                     AdmissionParams(), MetricsCollector(), seed=1)
    # Warm up: the first RPC creates the flow and the channel and fills
    # the one-packet window; the next ones only queue behind it.
    rpcs = [stack.issue(1, Priority.PC, 1024) for _ in range(8)]
    flow = endpoints[0].flows[(1, 0)]
    assert flow.inflight == 1 and flow.backlog_messages == 7
    return stack, flow, rpcs


def _assert_one_object_per_issue():
    stack, flow, rpcs = _full_window()
    count = 500
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for _ in range(count):
            rpcs.append(stack.issue(1, Priority.PC, 1024))
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert after - before == count
    # The flow holds these same objects (RPCs compare by identity): the
    # one in flight in its map, the queued ones in its queue only.
    assert flow._messages == {rpcs[0].rpc_id: rpcs[0]}
    assert list(flow._pending) == rpcs[1:]

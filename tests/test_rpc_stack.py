"""Unit/integration tests for the RPC stack and metrics collector."""

import pytest

from repro.core.admission import AdmissionParams
from repro.core.qos import Priority
from repro.core.quota import QuotaReservation, QuotaServer
from repro.core.slo import SLOMap
from repro.net.packet import MTU_BYTES
from repro.net.topology import build_star, wfq_factory
from repro.obs.runtime import ObsContext, activate, deactivate
from repro.obs.trace import Tracer
from repro.rpc.stack import MetricsCollector, RpcStack
from repro.sim.engine import Simulator, ns_from_us
from repro.transport.reliable import TransportConfig, TransportEndpoint


def make_cluster(num_hosts=3, admission=True, pctl=99.0, **stack_kwargs):
    sim = Simulator()
    net = build_star(sim, num_hosts, wfq_factory((8, 4, 1)))
    slo_map = SLOMap.for_three_levels(
        ns_from_us(15), ns_from_us(25), target_percentile=pctl
    )
    eps = [TransportEndpoint(sim, h, TransportConfig(ack_bypass=True)) for h in net.hosts]
    for a in eps:
        for b in eps:
            if a is not b:
                a.register_peer(b)
    metrics = MetricsCollector()
    stacks = [
        RpcStack(sim, net.hosts[i], eps[i], slo_map, AdmissionParams(),
                 metrics, seed=i, admission_enabled=admission, **stack_kwargs)
        for i in range(num_hosts)
    ]
    return sim, stacks, metrics, slo_map


def test_issue_and_complete_records_metrics():
    sim, stacks, metrics, _ = make_cluster()
    rpc = stacks[0].issue(1, Priority.PC, 32 * 1024)
    assert rpc.qos_requested == 0
    assert metrics.issued_count == 1
    sim.run()
    assert rpc.completed
    assert rpc.rnl_ns > 0
    assert len(metrics.completed) == 1


def test_phase1_priority_mapping():
    sim, stacks, metrics, _ = make_cluster(admission=False)
    for prio, qos in ((Priority.PC, 0), (Priority.NC, 1), (Priority.BE, 2)):
        rpc = stacks[0].issue(1, prio, 4096)
        assert rpc.qos_requested == qos
        assert rpc.qos_run == qos
    sim.run()


def test_admission_disabled_never_downgrades():
    sim, stacks, metrics, _ = make_cluster(admission=False)
    for _ in range(50):
        stacks[0].issue(1, Priority.PC, 32 * 1024)
    sim.run()
    assert metrics.downgrades == 0


def test_downgrade_notification_fires():
    notified = []
    sim, stacks, metrics, _ = make_cluster(on_downgrade=notified.append)
    ctrl = stacks[0].registry.controller(1)
    # Force a low admit probability, then issue.
    for _ in range(200):
        ctrl.on_rpc_completion(ns_from_us(10_000), 8, 0)
    for _ in range(100):
        stacks[0].issue(1, Priority.PC, 32 * 1024)
    assert notified
    assert all(r.downgraded and r.qos_run == 2 for r in notified)
    sim.run()


def test_completion_feeds_admission_controller():
    sim, stacks, _, __ = make_cluster()
    stacks[0].issue(1, Priority.PC, 32 * 1024)
    sim.run()
    ctrl = stacks[0].registry.controller(1)
    inc, dec = ctrl.state_counters(0)
    assert inc + dec >= 0  # controller saw the completion path
    # A fast RPC within SLO must not decrease p_admit.
    assert ctrl.p_admit(0) == 1.0


def test_qos_mapper_override():
    sim, stacks, metrics, _ = make_cluster(
        admission=False, qos_mapper=lambda rpc: 2
    )
    rpc = stacks[0].issue(1, Priority.PC, 4096)
    assert rpc.qos_requested == 2  # misaligned: PC riding the scavenger
    sim.run()


def test_deadline_fn_sets_absolute_deadline():
    captured = {}

    class SpyEndpoint(TransportEndpoint):
        def send_message(self, msg):
            captured["deadline"] = msg.deadline_ns
            super().send_message(msg)

    sim = Simulator()
    net = build_star(sim, 2, wfq_factory((8, 4, 1)))
    slo_map = SLOMap.for_three_levels(ns_from_us(15), ns_from_us(25))
    eps = [SpyEndpoint(sim, h, TransportConfig(ack_bypass=True)) for h in net.hosts]
    eps[0].register_peer(eps[1])
    eps[1].register_peer(eps[0])
    stack = RpcStack(sim, net.hosts[0], eps[0], slo_map,
                     deadline_fn=lambda rpc: 250_000)
    sim.schedule(1000, stack.issue, 1, Priority.PC, 4096)
    sim.run()
    assert captured["deadline"] == 1000 + 250_000


def test_admitted_and_offered_mix():
    sim, stacks, metrics, _ = make_cluster(admission=False)
    stacks[0].issue(1, Priority.PC, 3 * MTU_BYTES)
    stacks[0].issue(1, Priority.BE, MTU_BYTES)
    sim.run()
    offered = metrics.offered_mix()
    assert offered[0] == pytest.approx(0.75)
    assert offered[2] == pytest.approx(0.25)
    assert metrics.admitted_mix() == offered  # no downgrades


def test_mix_window_filtering():
    sim, stacks, metrics, _ = make_cluster(admission=False)
    stacks[0].issue(1, Priority.PC, MTU_BYTES)
    sim.run()
    cutoff = sim.now + 1
    sim.schedule(10_000, stacks[0].issue, 1, Priority.BE, MTU_BYTES)
    sim.run()
    assert set(metrics.offered_mix()) == {0, 2}
    late_only = metrics.offered_mix(since_ns=cutoff)
    assert set(late_only) == {2}


def test_slo_met_fraction_counts_downgrades_as_misses():
    sim, stacks, metrics, slo_map = make_cluster()
    ctrl = stacks[0].registry.controller(1)
    for _ in range(300):
        ctrl.on_rpc_completion(ns_from_us(10_000), 8, 0)  # crash p_admit
    for _ in range(50):
        stacks[0].issue(1, Priority.PC, 32 * 1024)
    sim.run()
    met = metrics.slo_met_fraction(0)
    # Nearly everything was downgraded -> low met fraction.
    assert met < 0.2


def test_slo_met_fraction_window_bounds():
    sim, stacks, metrics, slo_map = make_cluster(admission=False)
    stacks[0].issue(1, Priority.PC, 4096)
    sim.run()
    t_mid = sim.now + 1
    sim.schedule(5_000, stacks[0].issue, 1, Priority.PC, 4096)
    sim.run()
    assert metrics.slo_met_fraction(0) == pytest.approx(1.0)
    assert metrics.slo_met_fraction(0, until_ns=t_mid) == pytest.approx(1.0)
    assert metrics.slo_met_fraction(0, since_ns=t_mid) == pytest.approx(1.0)


def test_goodput_fraction_all_completed():
    sim, stacks, metrics, _ = make_cluster(admission=False)
    for _ in range(10):
        stacks[0].issue(1, Priority.NC, 2 * MTU_BYTES)
    sim.run()
    assert metrics.goodput_fraction() == pytest.approx(1.0)


def test_normalized_rnl_per_mtu():
    sim, stacks, metrics, _ = make_cluster(admission=False)
    rpc = stacks[0].issue(1, Priority.PC, 8 * MTU_BYTES)
    sim.run()
    assert rpc.normalized_rnl_ns() == pytest.approx(rpc.rnl_ns / 8)
    samples = metrics.normalized_rnl_ns(0)
    assert samples == [pytest.approx(rpc.rnl_ns / 8)]


def test_issue_hooks_fire():
    sim, stacks, metrics, _ = make_cluster(admission=False)
    issued, completed = [], []
    metrics.on_issue_hook = issued.append
    metrics.on_complete_hook = completed.append
    stacks[0].issue(1, Priority.PC, 4096)
    assert len(issued) == 1
    sim.run()
    assert len(completed) == 1


def test_rejected_issue_leaves_no_trace():
    """An empty payload is refused before the RPC is counted, its
    channel created, its admission coin flipped or its quota charged."""
    server = QuotaServer(lambda: 0, {0: 50e9, 1: 50e9})
    server.reserve(QuotaReservation(tenant=0, qos=1, rate_bps=10e9))
    sim, stacks, metrics, _ = make_cluster(quota_server=server)
    stack = stacks[0]
    stack.issue(1, Priority.PC, 4096)
    stack.issue(1, Priority.NC, 4096)
    ctrl = stack.registry.controller(1)

    def state():
        return (
            metrics.issued_count,
            sorted(stack.registry.controllers()),
            ctrl._rng.getstate(),
            server.admitted_reserved,
            server.admitted_spare,
            server.denied,
        )

    before = state()
    for dst in (1, 2):
        for prio in Priority:
            with pytest.raises(ValueError):
                stack.issue(dst, prio, 0)
    assert state() == before
    sim.run()
    assert len(metrics.completed) == 2


def test_terminated_slo_rpc_is_a_verdict_miss():
    """A D3/PDQ-style termination of an SLO-class RPC is a miss, as in
    live and in ``slo_met_fraction``; the tracer's span says so too."""
    context = activate(ObsContext(tracer=Tracer()))
    try:
        sim, stacks, metrics, slo_map = make_cluster()
    finally:
        deactivate()
    rpc = stacks[0].issue(1, Priority.PC, 32 * 1024)
    flow = stacks[0].endpoint.flows[(1, rpc.qos_run)]
    assert flow.cancel_message(rpc.rpc_id)
    assert rpc.terminated and metrics.terminated == 1
    assert context.tracer.rpc_span(rpc.rpc_id).slo_met is False

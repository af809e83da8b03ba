"""Unit tests for the per-destination channel registry."""

from repro.core.admission import AdmissionParams
from repro.core.channel import ChannelRegistry
from repro.core.slo import SLOMap
from repro.sim.engine import ns_from_us


def make_registry(seed=0):
    slo_map = SLOMap.for_three_levels(ns_from_us(15), ns_from_us(25))
    return ChannelRegistry(slo_map, AdmissionParams(), seed=seed)


def test_controllers_created_lazily():
    reg = make_registry()
    assert len(reg) == 0
    reg.controller("hostA")
    assert len(reg) == 1
    reg.controller("hostA")
    assert len(reg) == 1
    reg.controller("hostB")
    assert len(reg) == 2


def test_same_destination_same_controller():
    reg = make_registry()
    assert reg.controller(5) is reg.controller(5)
    assert reg.controller(5) is not reg.controller(6)


def test_per_destination_state_isolated():
    reg = make_registry()
    a = reg.controller("a")
    b = reg.controller("b")
    a.on_rpc_completion(ns_from_us(10_000), 8, 0)
    assert a.p_admit(0) < 1.0
    assert b.p_admit(0) == 1.0


def test_substreams_independent_of_creation_order():
    """Adding a destination must not perturb another's coin flips."""

    def flips(order):
        reg = make_registry(seed=42)
        for dst in order:
            ctrl = reg.controller(dst)
            ctrl.on_rpc_completion(ns_from_us(10_000), 8, 0)  # p < 1
        ctrl = reg.controller("target")
        for _ in range(50):
            ctrl.on_rpc_completion(ns_from_us(10_000), 8, 0)
        return [ctrl.admit_qos(0) for _ in range(100)]

    assert flips(["target", "x"]) == flips(["x", "target"])


def test_controllers_snapshot():
    reg = make_registry()
    reg.controller(1)
    reg.controller(2)
    snap = reg.controllers()
    assert set(snap) == {1, 2}

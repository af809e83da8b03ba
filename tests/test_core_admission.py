"""Unit + property tests for the Algorithm-1 admission controller."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import AdmissionController, AdmissionParams
from repro.core.slo import SLO, SLOMap
from repro.sim.engine import ns_from_us


def make_controller(alpha=0.01, beta=0.01, floor=0.01, pctl=99.0, clock=None,
                    high_us=15.0, med_us=25.0):
    slo_map = SLOMap.for_three_levels(
        ns_from_us(high_us), ns_from_us(med_us), target_percentile=pctl
    )
    return AdmissionController(
        slo_map,
        AdmissionParams(alpha=alpha, beta=beta, floor=floor),
        rng=random.Random(7),
        clock=clock or (lambda: 0),
    )


def test_initial_admit_probability_is_one():
    ctrl = make_controller()
    assert ctrl.p_admit(0) == 1.0
    assert ctrl.p_admit(1) == 1.0


def test_full_probability_always_admits():
    ctrl = make_controller()
    for _ in range(200):
        assert ctrl.admit_qos(0) == 0


def test_scavenger_requests_never_downgraded():
    ctrl = make_controller()
    for _ in range(50):
        assert ctrl.admit_qos(2) == 2


def test_downgrade_goes_to_lowest_qos():
    ctrl = make_controller()
    # Crash p_admit with misses, then issue many RPCs.
    for _ in range(200):
        ctrl.on_rpc_completion(ns_from_us(1000), 8, 0)
    assert ctrl.p_admit(0) == pytest.approx(0.01)
    downgrades = 0
    for _ in range(500):
        qos_run = ctrl.admit_qos(0)
        if qos_run != 0:
            downgrades += 1
            assert qos_run == 2
    assert downgrades > 400  # ~99% at the floor


def test_miss_decrement_proportional_to_size():
    a = make_controller()
    b = make_controller()
    a.on_rpc_completion(ns_from_us(1000), 1, 0)
    b.on_rpc_completion(ns_from_us(10000), 10, 0)
    assert 1.0 - a.p_admit(0) == pytest.approx(0.01)
    assert 1.0 - b.p_admit(0) == pytest.approx(0.10)


def test_ten_unit_misses_equal_one_ten_mtu_miss():
    a = make_controller()
    b = make_controller()
    for _ in range(10):
        a.on_rpc_completion(ns_from_us(100), 1, 0)  # 100us > 15us budget
    b.on_rpc_completion(ns_from_us(1000), 10, 0)
    assert a.p_admit(0) == pytest.approx(b.p_admit(0))


def test_floor_prevents_starvation():
    ctrl = make_controller(floor=0.05)
    for _ in range(1000):
        ctrl.on_rpc_completion(ns_from_us(999), 8, 0)
    assert ctrl.p_admit(0) == pytest.approx(0.05)


def test_additive_increase_gated_by_window():
    now = {"t": 0}
    ctrl = make_controller(clock=lambda: now["t"], pctl=99.0, high_us=15.0)
    # Crash first so increases are visible.
    ctrl.on_rpc_completion(ns_from_us(1000), 50, 0)
    p0 = ctrl.p_admit(0)
    window = ctrl.slo_map.get(0).increment_window_ns
    # Many SLO-meeting completions within one window: only the first
    # past-the-window one increments.
    now["t"] = window + 1
    for _ in range(100):
        ctrl.on_rpc_completion(ns_from_us(1), 1, 0)
    assert ctrl.p_admit(0) == pytest.approx(p0 + 0.01)
    # Next window: one more increment.
    now["t"] = 2 * (window + 1)
    for _ in range(100):
        ctrl.on_rpc_completion(ns_from_us(1), 1, 0)
    assert ctrl.p_admit(0) == pytest.approx(p0 + 0.02)


def test_increase_capped_at_one():
    now = {"t": 0}
    ctrl = make_controller(clock=lambda: now["t"])
    window = ctrl.slo_map.get(0).increment_window_ns
    for i in range(10):
        now["t"] = (i + 1) * (window + 1)
        ctrl.on_rpc_completion(ns_from_us(1), 1, 0)
    assert ctrl.p_admit(0) == 1.0


def test_per_qos_state_independent():
    ctrl = make_controller()
    ctrl.on_rpc_completion(ns_from_us(1000), 8, 0)
    assert ctrl.p_admit(0) < 1.0
    assert ctrl.p_admit(1) == 1.0


def test_scavenger_completions_ignored():
    ctrl = make_controller()
    ctrl.on_rpc_completion(ns_from_us(10_000), 8, 2)
    assert ctrl.p_admit(0) == 1.0
    assert ctrl.p_admit(1) == 1.0


def test_normalized_slo_large_rpc_gets_larger_budget():
    ctrl = make_controller(high_us=15.0)
    kinds = []
    ctrl.on_adjust = lambda qos, p, kind, now: kinds.append(kind)
    # 100us absolute for an 8-MTU RPC is within 8*15=120us budget.
    ctrl.on_rpc_completion(ns_from_us(100), 8, 0)
    assert "decrease" not in kinds
    # The same 100us for a 1-MTU RPC is a miss.
    ctrl.on_rpc_completion(ns_from_us(100), 1, 0)
    assert kinds.count("decrease") == 1


def test_trace_records_adjustments():
    ctrl = make_controller()
    seen = []
    ctrl.on_adjust = lambda *adjustment: seen.append(adjustment)
    ctrl.on_rpc_completion(ns_from_us(1000), 8, 0)
    assert len(seen) == 1
    qos, p, kind, _ = seen[0]
    assert qos == 0 and p == pytest.approx(0.92) and kind == "decrease"


def test_params_validation():
    with pytest.raises(ValueError):
        AdmissionParams(alpha=0.0)
    with pytest.raises(ValueError):
        AdmissionParams(beta=1.5)
    with pytest.raises(ValueError):
        AdmissionParams(floor=1.0)


@settings(max_examples=60, deadline=None)
@given(
    events=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=100_000_000),  # rnl ns
            st.integers(min_value=1, max_value=300),  # size mtus
            st.integers(min_value=0, max_value=2),  # qos
        ),
        max_size=200,
    )
)
def test_p_admit_always_within_bounds(events):
    """Invariant: floor <= p_admit <= 1 under any completion sequence."""
    now = {"t": 0}
    ctrl = make_controller(clock=lambda: now["t"])
    for rnl, size, qos in events:
        now["t"] += 1_000_000
        ctrl.on_rpc_completion(rnl, size, qos)
        for level in (0, 1):
            assert 0.01 - 1e-12 <= ctrl.p_admit(level) <= 1.0 + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_admission_rate_matches_probability(seed):
    """Empirical admit fraction tracks p_admit."""
    slo_map = SLOMap.for_three_levels(ns_from_us(15), ns_from_us(25))
    ctrl = AdmissionController(slo_map, rng=random.Random(seed))
    for _ in range(30):
        ctrl.on_rpc_completion(ns_from_us(1000), 4, 0)
    p = ctrl.p_admit(0)
    admitted = sum(
        1 for _ in range(2000) if ctrl.admit_qos(0) == 0
    )
    assert abs(admitted / 2000 - p) < 0.06

"""The transport-neutral admission facade.

Lifting the Phase-2 pipeline behind :class:`AdmissionEngine` claims to
be behavior-preserving: the engine must make the exact decisions (and
coin flips) the raw :class:`ChannelRegistry` path makes under the same
seed, so the simulator's digests and the live runtime's coin streams
both flow through one implementation.  These tests pin that parity,
the clock-normalization seam (:func:`as_now_fn`), the ``enabled=False``
passthrough, and the quota-gate branches.
"""

import dataclasses

import pytest

from repro.core.admission import AdmissionParams
from repro.core.channel import ChannelRegistry
from repro.core.clocks import FixedClock, as_now_fn
from repro.core.interface import AdmissionEngine
from repro.core.qos import QoSConfig, WEIGHTS_2_QOS
from repro.core.quota import QuotaReservation, QuotaServer
from repro.core.slo import SLO, SLOMap

US = 1_000
MS = 1_000_000


def two_level_slo_map() -> SLOMap:
    return SLOMap(
        {0: SLO(25 * MS, 90.0)},
        QoSConfig(weights=WEIGHTS_2_QOS),
    )


# ----------------------------------------------------------------------
# clock normalization
# ----------------------------------------------------------------------
class TestAsNowFn:
    def test_none_passes_through(self):
        assert as_now_fn(None) is None

    def test_clock_source_adapts_to_bound_method(self):
        clock = FixedClock(42)
        fn = as_now_fn(clock)
        assert fn() == 42
        clock.advance(8)
        assert fn() == 50

    def test_bare_callable_returned_as_is(self):
        def now() -> int:
            return 7

        assert as_now_fn(now) is now

    def test_non_clock_raises(self):
        with pytest.raises(TypeError):
            as_now_fn(3.14)

    def test_fixed_clock_rejects_backward_motion(self):
        clock = FixedClock()
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestSimClock:
    def test_tracks_simulator_now(self):
        class FakeSim:
            now = 1234

        sim = FakeSim()
        now_fn = as_now_fn(lambda: sim.now)
        assert now_fn() == 1234
        sim.now = 5678
        assert now_fn() == 5678

    def test_obs_reexports_clock_sources(self):
        from repro.obs import ClockSource, FixedClock as ObsFixedClock

        assert isinstance(ObsFixedClock(0), ClockSource)


# ----------------------------------------------------------------------
# decision parity with the raw registry path
# ----------------------------------------------------------------------
class TestEngineParity:
    def test_same_coin_flips_as_channel_registry(self):
        """The engine and a raw registry under one seed must agree on
        every decision and every post-feedback p_admit — the digest-
        preservation claim in one assertion loop."""
        slo_map = two_level_slo_map()
        params = AdmissionParams()
        clock_a = FixedClock()
        clock_b = FixedClock()
        engine = AdmissionEngine(slo_map, params, seed=101, clock=clock_a)
        registry = ChannelRegistry(
            slo_map, params, seed=101, clock=as_now_fn(clock_b)
        )
        # A miss-heavy mixed sequence: drive p_admit down so the
        # probabilistic branch actually exercises the RNG on both sides.
        for step in range(400):
            outcome = engine.decide("dst", 0)
            qos_run = registry.controller("dst").admit_qos(0)
            assert outcome.qos_run == qos_run
            assert outcome.downgraded == (qos_run != 0)
            rnl = 50 * MS if step % 3 else 10 * MS  # mostly misses
            engine.complete("dst", rnl, 1, outcome.qos_run)
            registry.controller("dst").on_rpc_completion(rnl, 1, qos_run)
            clock_a.advance(5 * MS)
            clock_b.advance(5 * MS)
            assert engine.p_admit("dst", 0) == pytest.approx(
                registry.controller("dst").p_admit(0)
            )

    def test_misses_throttle_and_meets_recover(self):
        clock = FixedClock()
        engine = AdmissionEngine(two_level_slo_map(), seed=1, clock=clock)
        for _ in range(120):
            outcome = engine.decide("dst", 0)
            engine.complete("dst", 100 * MS, 1, outcome.qos_run)
        throttled = engine.p_admit("dst", 0)
        assert throttled < 0.5
        # Meets inside successive increment windows walk p back up.
        for _ in range(30):
            clock.advance(300 * MS)  # past the p90 increment window
            outcome = engine.decide("dst", 0)
            engine.complete("dst", 1 * MS, 1, outcome.qos_run)
        assert engine.p_admit("dst", 0) > throttled

    def test_scavenger_class_never_downgraded(self):
        engine = AdmissionEngine(two_level_slo_map(), seed=3)
        for _ in range(50):
            outcome = engine.decide("dst", 1)
            assert outcome.qos_run == 1
            assert not outcome.downgraded

    def test_per_destination_state_is_independent(self):
        engine = AdmissionEngine(two_level_slo_map(), seed=5)
        for _ in range(40):
            outcome = engine.decide("a", 0)
            engine.complete("a", 100 * MS, 1, outcome.qos_run)
        assert engine.p_admit("a", 0) < 1.0
        assert engine.p_admit("b", 0) == pytest.approx(1.0)

    def test_snapshot_covers_channels_and_levels(self):
        engine = AdmissionEngine(two_level_slo_map(), seed=5)
        engine.decide("a", 0)
        engine.decide("b", 0)
        snap = engine.snapshot()
        assert set(snap) == {"a", "b"}
        # Only SLO-carrying levels have admit state worth reporting.
        assert set(snap["a"]) == {0}


class TestDisabledEngine:
    def test_passthrough_never_downgrades(self):
        engine = AdmissionEngine(two_level_slo_map(), seed=9, enabled=False)
        for _ in range(100):
            outcome = engine.decide("dst", 0)
            assert outcome.qos_run == 0
            assert not outcome.downgraded
            engine.complete("dst", 500 * MS, 1, 0)  # feedback is a no-op
        assert engine.p_admit("dst", 0) == pytest.approx(1.0)


class TestSharedVerdictsAreImmutable:
    """``decide`` hands every caller the same outcome objects, which
    applications may keep: they must not be writable."""

    def test_outcome_and_decision_reject_assignment(self):
        engine = AdmissionEngine(two_level_slo_map(), seed=9)
        outcome = engine.decide("dst", 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.qos_run = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.downgraded = True

    def test_equal_verdicts_are_one_object(self):
        engine = AdmissionEngine(two_level_slo_map(), seed=9, enabled=False)
        assert engine.decide("a", 0) is engine.decide("b", 0)
        # A level outside the configured plane still gets an answer.
        assert engine.decide("a", 7).qos_run == 7


# ----------------------------------------------------------------------
# the §5.2 quota gate
# ----------------------------------------------------------------------
class TestQuotaGate:
    def _engine_with_quota(self, clock: FixedClock) -> AdmissionEngine:
        quota = QuotaServer(
            as_now_fn(clock), total_rate_bps={0: 8e9}, work_conserving=True
        )
        quota.reserve(QuotaReservation(tenant="t1", qos=0, rate_bps=4e9))
        return AdmissionEngine(
            two_level_slo_map(),
            seed=11,
            clock=clock,
            quota_server=quota,
        )

    def test_reserved_traffic_bypasses_probabilistic_stage(self):
        clock = FixedClock()
        engine = self._engine_with_quota(clock)
        outcome = engine.decide("dst", 0, payload_bytes=1000, tenant="t1")
        assert outcome.quota == "reserved"
        assert outcome.qos_run == 0
        assert not outcome.downgraded

    def test_unreserved_tenant_rides_spare(self):
        clock = FixedClock()
        engine = self._engine_with_quota(clock)
        outcome = engine.decide("dst", 0, payload_bytes=1000, tenant="t2")
        assert outcome.quota == "spare"

    def test_exhausted_reservation_downgrades_on_denial(self):
        clock = FixedClock()
        quota = QuotaServer(
            as_now_fn(clock), total_rate_bps={0: 8e9}, work_conserving=False
        )
        quota.reserve(
            QuotaReservation(tenant="t1", qos=0, rate_bps=8.0, burst_bytes=1)
        )
        engine = AdmissionEngine(
            two_level_slo_map(), seed=11, clock=clock, quota_server=quota
        )
        engine.decide("dst", 0, payload_bytes=1, tenant="t1")
        outcome = engine.decide("dst", 0, payload_bytes=10_000, tenant="t1")
        assert outcome.quota == "denied"
        assert outcome.downgraded
        assert outcome.qos_run == 1  # lowest level

    def test_scavenger_requests_skip_the_gate(self):
        clock = FixedClock()
        engine = self._engine_with_quota(clock)
        outcome = engine.decide("dst", 1, payload_bytes=1000, tenant="t1")
        assert outcome.quota is None

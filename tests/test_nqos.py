"""Integration test: the design extends beyond three QoS levels."""

from repro.experiments import nqos
from repro.runner.point import Point


def test_five_qos_levels_all_meet_slo():
    point = Point("nqos", {"num_hosts": 4, "duration_ms": 15.0, "warmup_ms": 7.0})
    row = nqos.run_point(point, 55)
    tails = {int(q): v for q, v in row["tails_us"].items()}
    assert len(row["weights"]) == 5
    # Every SLO-carrying class lands at or under its target...
    for qos, slo in nqos.SLO_TARGETS_US.items():
        assert tails[qos] < 1.5 * slo, (qos, tails[qos])
    # ...and the tails respect the class ordering (no inversion).
    ordered = [tails[q] for q in range(4)]
    assert ordered == sorted(ordered)
    # The scavenger class carries the downgraded overflow.
    assert row["admitted_mix"].get("4", 0.0) > 0.05

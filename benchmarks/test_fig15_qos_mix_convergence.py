"""Figure 15 bench: admitted QoS-mix is independent of the input mix.

Paper: four very different input mixes all converge to the same
SLO-determined admitted mix (~25/26/49), the self-consistent input
((25,25,50)) sees almost no downgrades, and the QoS_h tail stays at
the SLO throughout — the antidote to the race to the top.
"""

from repro.experiments import fig15
from repro.runner.point import Point


def test_fig15_qos_mix_convergence(run_once):
    spec = {
        "num_hosts": 8,
        "duration_ms": 30.0,
        "warmup_ms": 15.0,
        "slo_high_us": 15.0,
        "slo_med_us": 25.0,
    }
    mixes = (
        [0.25, 0.25, 0.50],
        [0.60, 0.30, 0.10],
        [0.50, 0.30, 0.20],
        [0.40, 0.40, 0.20],
    )
    points = [Point("fig15", {"input_mix": mix, **spec}) for mix in mixes]
    rows = run_once(lambda: [fig15.run_point(p, 15) for p in points])
    print()
    print(fig15.table(rows))
    # Admitted QoS_h share varies little across wildly different inputs.
    assert fig15.admitted_spread(rows) < 0.15
    # Self-consistency: input == sustainable mix -> almost no downgrades.
    self_consistent = rows[0]
    assert self_consistent["input_mix"] == [0.25, 0.25, 0.50]
    assert self_consistent["downgrade_fraction"] < 0.05
    # SLO compliance for every input mix.
    for r in rows:
        assert r["qos_h_tail_us"] < 1.5 * spec["slo_high_us"]

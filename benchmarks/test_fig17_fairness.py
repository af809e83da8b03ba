"""Figure 17 bench: AIMD fairness between unequal channels.

Paper: channels demanding 80 vs 40 Gbps of QoS_h converge to *equal*
admitted throughput via *different* admit probabilities, within ~10 ms.
(Laptop scaling: faster alpha, so convergence is judged on the running
average; see the driver.)
"""

from repro.experiments import fig17
from repro.runner.point import Point


def test_fig17_fairness(run_once):
    params = {"share_a": 0.4, "share_b": 0.8, "alpha": 0.05, "beta": 0.01}
    point = Point("fig17", {**params, "duration_ms": 100.0})
    row = run_once(fig17.run_point, point, 17)
    print()
    print(fig17.table([row]))
    # Settled goodput: the mean over the last quarter of each trace.
    a, b = row["goodput_a_gbps"], row["goodput_b_gbps"]
    # Neither channel starves, and the split is far closer to equal than
    # the 2:1 demand ratio (at the laptop-scaled alpha the AIMD cycles
    # are large, so exact equality needs much longer horizons).
    assert a > 5.0 and b > 5.0
    assert max(a, b) / min(a, b) < 1.7
    conv = row["convergence_ms"]
    assert conv is not None and conv < 80.0
